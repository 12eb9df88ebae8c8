"""Single-variable reductions for products of modal logics.

The package compiles a multi-variable n-modal formula into a formula of one
variable whose product-logic validity matches the original, and ships the
finite-model machinery (model checker, countermodel search, model surgeries)
used to test that claim at desk scale.
"""

from onevar.formulas import (
    Formula,
    FormulaStore,
    ModalityError,
    ParseError,
    dag_size,
    parse,
    render,
)
from onevar.kripke import (
    Frame1,
    ProductModel,
    check,
    check_naive,
    product,
    restrict,
    sat_set,
)
from onevar.translation import (
    DEFAULT_VARIANT,
    K_MODE_DEFAULT_VARIANT,
    VARIANT_GRID,
    ReservedVariableError,
    TranslationContext,
    VariantConfig,
)

__all__ = [
    "Formula",
    "FormulaStore",
    "ModalityError",
    "ParseError",
    "dag_size",
    "parse",
    "render",
    "Frame1",
    "ProductModel",
    "check",
    "check_naive",
    "product",
    "restrict",
    "sat_set",
    "DEFAULT_VARIANT",
    "K_MODE_DEFAULT_VARIANT",
    "VARIANT_GRID",
    "ReservedVariableError",
    "TranslationContext",
    "VariantConfig",
]
