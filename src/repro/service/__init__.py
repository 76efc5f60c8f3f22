"""The serving layer: query front-end, admission control, service stats."""

from repro.service.admission import AdmissionController
from repro.service.policy import (
    DEFAULT_PRIORITY_THRESHOLDS,
    DEFAULT_TENANT,
    PRIORITY_CLASSES,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.service import QueryService
from repro.service.stats import LatencyReservoir, ServiceStats

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "DEFAULT_PRIORITY_THRESHOLDS",
    "DEFAULT_TENANT",
    "LatencyReservoir",
    "PRIORITY_CLASSES",
    "QueryService",
    "ServiceStats",
]
