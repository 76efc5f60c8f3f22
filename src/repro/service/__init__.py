"""The serving layer: query front-end and admission control."""

from repro.service.admission import AdmissionController
from repro.service.policy import (
    DEFAULT_PRIORITY_THRESHOLDS,
    DEFAULT_TENANT,
    PRIORITY_CLASSES,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.service import QueryService

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "DEFAULT_PRIORITY_THRESHOLDS",
    "DEFAULT_TENANT",
    "PRIORITY_CLASSES",
    "QueryService",
]
