"""Plan evaluation.

The evaluator interprets both plan sorts.  Dependent plans see the
current tuple through a *tuple-scope chain*: ``FieldAccess`` (``IN#f``)
resolves a field against the innermost tuple that defines it, which
gives dependent sub-plans lexical access to enclosing loops' bindings
(field names are uniquified at compile time, so the chain never
shadows).

The ``TupleTreePattern`` operator delegates pattern matching to the
:class:`~repro.physical.base.TreePatternAlgorithm` carried by the
evaluation context — this is the paper's "choosing a tree pattern
algorithm" seam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..compiled.runtime import context_nodes, is_numeric_singleton, ttp_eval
from ..obs import Probe
from ..pattern import TreePattern
from ..physical.base import TreePatternAlgorithm
from ..xmltree.axes import step as axis_step
from ..xmltree.document import IndexedDocument, ddo
from ..xmltree.node import Node
from ..xqcore.cast import Var
from .functions import call_function
from .ops import (Arith, Compare, Const, DDOPlan, FieldAccess, FnCall,
                  IfPlan, InputTuple, ItemPlan, LetPlan, Logical,
                  MapFromItem, MapToItem, Plan, Select, SeqPlan, TreeJoin,
                  TuplePlan, TupleTreePattern, TypeswitchPlan, VarPlan)
from .runtime import (DynamicError, Sequence_, effective_boolean_value,
                      general_compare, arithmetic)

Tuple_ = Dict[str, Sequence_]


@dataclass
class EvalContext:
    """Everything a plan needs at runtime."""

    document: Optional[IndexedDocument]
    strategy: TreePatternAlgorithm
    globals: Dict[Var, Sequence_] = field(default_factory=dict)
    variables: Dict[Var, Sequence_] = field(default_factory=dict)
    tuple_stack: List[Tuple_] = field(default_factory=list)
    #: when set, every operator evaluation goes through
    #: :meth:`repro.obs.Probe.operator`: counted, spanned with its
    #: output cardinality, and charged against the step, depth and
    #: output budgets.
    probe: Optional[Probe] = None

    def lookup_var(self, var: Var) -> Sequence_:
        if var in self.variables:
            return self.variables[var]
        if var in self.globals:
            return self.globals[var]
        raise DynamicError(f"unbound variable ${var.name}")

    def lookup_field(self, name: str) -> Sequence_:
        for tuple_ in reversed(self.tuple_stack):
            if name in tuple_:
                return tuple_[name]
        raise DynamicError(f"unknown tuple field {name}")


def evaluate_plan(plan: Plan, context: EvalContext):
    """Evaluate a plan of either sort."""
    if isinstance(plan, ItemPlan):
        return eval_item(plan, context)
    return eval_tuples(plan, context)


def eval_item(plan: ItemPlan, ctx: EvalContext) -> Sequence_:
    if ctx.probe is None:
        return _eval_item(plan, ctx)
    return ctx.probe.operator(plan, _eval_item, ctx, False)


def _eval_item(plan: ItemPlan, ctx: EvalContext) -> Sequence_:
    if isinstance(plan, Const):
        return list(plan.values)
    if isinstance(plan, VarPlan):
        return list(ctx.lookup_var(plan.var))
    if isinstance(plan, FieldAccess):
        return list(ctx.lookup_field(plan.field))
    if isinstance(plan, TreeJoin):
        inputs = eval_item(plan.input, ctx)
        result: Sequence_ = []
        for item in inputs:
            if not isinstance(item, Node):
                raise DynamicError("TreeJoin over a non-node item")
            result.extend(axis_step(item, plan.axis, plan.test))
        return result
    if isinstance(plan, DDOPlan):
        items = eval_item(plan.input, ctx)
        for item in items:
            if not isinstance(item, Node):
                raise DynamicError("fs:ddo over a non-node item")
        return ddo(items)  # type: ignore[arg-type]
    if isinstance(plan, MapToItem):
        result = []
        for tuple_ in eval_tuples(plan.input, ctx):
            ctx.tuple_stack.append(tuple_)
            try:
                result.extend(eval_item(plan.dep, ctx))
            finally:
                ctx.tuple_stack.pop()
        return result
    if isinstance(plan, FnCall):
        args = [eval_item(arg, ctx) for arg in plan.args]
        return call_function(plan.name, args)
    if isinstance(plan, Compare):
        return [general_compare(plan.op, eval_item(plan.left, ctx),
                                eval_item(plan.right, ctx))]
    if isinstance(plan, Logical):
        left = effective_boolean_value(eval_item(plan.left, ctx))
        if plan.op == "and":
            if not left:
                return [False]
            return [effective_boolean_value(eval_item(plan.right, ctx))]
        if left:
            return [True]
        return [effective_boolean_value(eval_item(plan.right, ctx))]
    if isinstance(plan, Arith):
        return arithmetic(plan.op, eval_item(plan.left, ctx),
                          eval_item(plan.right, ctx))
    if isinstance(plan, IfPlan):
        if effective_boolean_value(eval_item(plan.condition, ctx)):
            return eval_item(plan.then_branch, ctx)
        return eval_item(plan.else_branch, ctx)
    if isinstance(plan, LetPlan):
        value = eval_item(plan.value, ctx)
        previous = ctx.variables.get(plan.var)
        ctx.variables[plan.var] = value
        try:
            return eval_item(plan.body, ctx)
        finally:
            if previous is None:
                del ctx.variables[plan.var]
            else:
                ctx.variables[plan.var] = previous
    if isinstance(plan, SeqPlan):
        result = []
        for item_plan in plan.items:
            result.extend(eval_item(item_plan, ctx))
        return result
    if isinstance(plan, TypeswitchPlan):
        return _eval_typeswitch(plan, ctx)
    raise DynamicError(f"cannot evaluate {type(plan).__name__}")


def _eval_typeswitch(plan: TypeswitchPlan, ctx: EvalContext) -> Sequence_:
    value = eval_item(plan.input, ctx)
    for case in plan.cases:
        if case.seqtype == "numeric" and is_numeric_singleton(value):
            return _with_binding(ctx, case.var, value, case.body)
    return _with_binding(ctx, plan.default_var, value, plan.default_body)


def _with_binding(ctx: EvalContext, var: Var, value: Sequence_,
                  body: ItemPlan) -> Sequence_:
    previous = ctx.variables.get(var)
    ctx.variables[var] = value
    try:
        return eval_item(body, ctx)
    finally:
        if previous is None:
            del ctx.variables[var]
        else:
            ctx.variables[var] = previous


def eval_tuples(plan: TuplePlan, ctx: EvalContext) -> List[Tuple_]:
    if ctx.probe is None:
        return _eval_tuples(plan, ctx)
    return ctx.probe.operator(plan, _eval_tuples, ctx, True)


def _eval_tuples(plan: TuplePlan, ctx: EvalContext) -> List[Tuple_]:
    if isinstance(plan, InputTuple):
        if not ctx.tuple_stack:
            raise DynamicError("IN used outside a dependent plan")
        return [ctx.tuple_stack[-1]]
    if isinstance(plan, MapFromItem):
        items = eval_item(plan.input, ctx)
        tuples: list[Tuple_] = []
        for index, item in enumerate(items, start=1):
            tuple_: Tuple_ = {plan.bind_field: [item]}
            if plan.index_field is not None:
                tuple_[plan.index_field] = [index]
            tuples.append(tuple_)
        return tuples
    if isinstance(plan, Select):
        kept: list[Tuple_] = []
        for tuple_ in eval_tuples(plan.input, ctx):
            ctx.tuple_stack.append(tuple_)
            try:
                verdict = effective_boolean_value(
                    eval_item(plan.predicate, ctx))
            finally:
                ctx.tuple_stack.pop()
            if verdict:
                kept.append(tuple_)
        return kept
    if isinstance(plan, TupleTreePattern):
        return _eval_ttp(plan, ctx)
    raise DynamicError(f"cannot evaluate {type(plan).__name__}")


def _eval_ttp(plan: TupleTreePattern, ctx: EvalContext) -> List[Tuple_]:
    if ctx.document is None:
        raise DynamicError("TupleTreePattern requires an indexed document")
    pattern: TreePattern = plan.pattern
    source = pattern.input_field
    output: list[Tuple_] = []
    for tuple_ in eval_tuples(plan.input, ctx):
        contexts = context_nodes(tuple_[source] if source in tuple_
                                 else ctx.lookup_field(source))
        for binding in ttp_eval(ctx.strategy, ctx.document, contexts,
                                pattern):
            extended: Tuple_ = dict(tuple_)
            for field_name, node in binding.items():
                extended[field_name] = [node]
            output.append(extended)
    return output
