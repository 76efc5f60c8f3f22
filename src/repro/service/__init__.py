"""The serving layer: query front-end, admission control, service stats."""

from repro.service.admission import AdmissionController
from repro.service.breaker import BREAKER_STATE_CODES, CircuitBreaker
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
    "BREAKER_STATE_CODES",
    "CircuitBreaker",
    "DEFAULT_PRIORITY_THRESHOLDS",
    "DEFAULT_TENANT",
    "LatencyReservoir",
    "PRIORITY_CLASSES",
    "QueryService",
    "ServiceStats",
]
