"""Runtime shims shared by generated pipeline code and the interpreter.

The code generator (:mod:`repro.compiled.codegen`) emits plain Python
loops; everything with interpreter-visible semantics — pattern
evaluation with its chaos point and error wrapping, context-node
checking, the dynamic-error raises — funnels through this module so the
generated source stays small.  :mod:`repro.algebra.eval` calls the same
pattern-evaluation, context-node and typeswitch helpers, so there is one
copy of the behaviour the differential test wall compares across the
backends, down to the rendered error text.
"""

from __future__ import annotations

from typing import List

from ..guard.chaos import chaos_point
from ..guard.errors import AlgorithmError
from ..guard.governor import BudgetExceeded
from ..algebra.runtime import DynamicError, Sequence_
from ..xmltree.node import Node

__all__ = ["context_nodes", "is_numeric_singleton", "raise_dynamic",
           "ttp_eval", "unknown_field"]


def ttp_eval(strategy, document, contexts, pattern):
    """One pattern evaluation of a ``TupleTreePattern`` (both backends):
    through the ``eval.ttp`` chaos point, with budget/dynamic errors
    propagated and any algorithm failure wrapped in
    :class:`~repro.guard.AlgorithmError` (eligible for strategy
    fallback)."""
    try:
        return chaos_point(
            "eval.ttp", strategy.evaluate(document, contexts, pattern))
    except (BudgetExceeded, DynamicError):
        raise
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as err:
        name = getattr(strategy, "name", type(strategy).__name__)
        raise AlgorithmError(
            f"physical algorithm {name!r} failed: {err}",
            algorithm=name) from err


def context_nodes(values: Sequence_) -> List[Node]:
    """The pattern's context nodes from a tuple field's item sequence
    (both backends)."""
    nodes: list[Node] = []
    for value in values:
        if not isinstance(value, Node):
            raise DynamicError("tree pattern context is not a node")
        nodes.append(value)
    return nodes


def is_numeric_singleton(value: Sequence_) -> bool:
    """Whether a typeswitch input matches the ``numeric`` case."""
    return (len(value) == 1 and isinstance(value[0], (int, float))
            and not isinstance(value[0], bool))


def unknown_field(name: str) -> Sequence_:
    """A field read that no enclosing tuple defines (mirrors
    ``EvalContext.lookup_field`` falling off the scope chain)."""
    raise DynamicError(f"unknown tuple field {name}")


def raise_dynamic(message: str) -> Sequence_:
    """Raise a :class:`DynamicError` from generated code."""
    raise DynamicError(message)
