"""Execution guardrails: error taxonomy, resource governor, chaos.

Three cooperating pieces keep a bad strategy choice — the risk inherent
in the paper's "no single algorithm wins everywhere" finding — from
taking the engine down:

* :mod:`repro.guard.errors` — the :class:`ReproError` taxonomy with
  machine-readable codes and source spans;
* :mod:`repro.guard.governor` — :class:`Budgets` /
  :class:`ResourceGovernor`, per-query wall-clock, step, output and
  recursion-depth budgets checked cheaply at the existing metrics
  counter sites;
* :mod:`repro.guard.chaos` — deterministic fault injection at named
  sites inside the physical operators, used by ``tests/chaos`` to prove
  every fallback path actually recovers.

``Engine.execute`` ties them together: a tripped budget or a failing
algorithm triggers retries along a configurable fallback chain (e.g.
``twigjoin → nljoin → item``), recorded as :class:`FallbackEvent`\\ s,
with ``strict=True`` re-raising instead.  See ``docs/ROBUSTNESS.md``.
"""

from .chaos import (ChaosInjector, ChaosSpec, InjectedFault, KNOWN_SITES,
                    active_injector, chaos_point, default_seed, inject,
                    worker_seed)
from .errors import (AlgorithmError, CircuitOpen, DocumentQuarantined,
                     FallbackEvent, InputError, InternalError, ReproError,
                     ServiceClosed, ServiceOverloaded, SourceSpan,
                     WorkerLost, typed_error)
from .governor import (BudgetExceeded, Budgets, ResourceGovernor,
                       deadline_budgets)

__all__ = [
    "AlgorithmError", "BudgetExceeded", "Budgets", "ChaosInjector",
    "ChaosSpec", "CircuitOpen", "DocumentQuarantined", "FallbackEvent",
    "InjectedFault", "InputError", "InternalError", "KNOWN_SITES",
    "ReproError", "ResourceGovernor", "ServiceClosed",
    "ServiceOverloaded", "SourceSpan", "WorkerLost",
    "active_injector", "chaos_point", "deadline_budgets", "default_seed",
    "inject", "typed_error", "worker_seed",
]
