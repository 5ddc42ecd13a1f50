"""Closed symbolic rule language: grammar, AST, evaluator, printer."""
from .ast import (
    And,
    ArgCmp,
    ArgRef,
    Expr,
    HasToolAtLeast,
    InventoryAtLeast,
    KgSatisfied,
    Lit,
    Membership,
    Not,
    ObsCmp,
    Or,
    Polarity,
    RuleAst,
    SgContains,
    SgUnexplored,
    pretty_print,
    uses_graphs,
)
from .evaluate import (
    JointVerdict,
    RuleVerdict,
    evaluate,
    evaluate_all,
    format_shortfall,
    parse_shortfall,
    render_template,
)
from .parser import ParseError, RuleTypeError, parse, parse_many

__all__ = [
    "And", "ArgCmp", "ArgRef", "Expr", "HasToolAtLeast", "InventoryAtLeast",
    "JointVerdict", "KgSatisfied", "Lit", "Membership", "Not", "ObsCmp", "Or",
    "ParseError", "Polarity", "RuleAst", "RuleTypeError", "RuleVerdict",
    "SgContains", "SgUnexplored", "evaluate", "evaluate_all", "format_shortfall",
    "parse", "parse_many", "parse_shortfall", "pretty_print", "render_template",
    "uses_graphs",
]
