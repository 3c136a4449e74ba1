"""Numerical laboratory for the mean curvature operator on 1d/2d grids."""

from .field import (
    Grid,
    DomainMask,
    ScalarField,
    DiscreteSet,
    ShapeSpec,
    NEG_INF,
    SizingError,
    UndefinedCellError,
    make_grid,
    sample_function,
    mollify_field,
    superlevel_set,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "DomainMask", "ScalarField", "DiscreteSet", "ShapeSpec",
    "NEG_INF", "SizingError", "UndefinedCellError",
    "make_grid", "sample_function", "mollify_field", "superlevel_set",
    "__version__",
]
