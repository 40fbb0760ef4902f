"""Symbolic bookkeeping for inductively built toric fibration towers.

A tower starts from an affine base of dimension p and grows one dimension
per level: a product step adjoins a free coordinate, a node step glues two
new coordinates along a character in the previously defined variables.
Towers are kept symbolic: only the character exponents are tracked, which
is exactly what base change to a one-dimensional germ transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class ProductStep:
    """Adjoin a free coordinate: the defining equation is absent."""

    kind = "product"


@dataclass(frozen=True)
class NodeStep:
    """Glue two new coordinates along a character: the defining equation is
    (new) * (new') = character, where the character's exponents over the
    earlier level variables and over the base coordinates are stored here.
    """

    kind = "node"
    alpha_exponents: tuple[tuple[int, int], ...] = ()
    t_exponents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        alphas = []
        for level, exponent in self.alpha_exponents:
            if isinstance(level, bool) or not isinstance(level, int):
                raise TypeError("exponent keys must be integer levels")
            if isinstance(exponent, bool) or not isinstance(exponent, int):
                raise TypeError("character exponents must be integers")
            alphas.append((level, exponent))
        object.__setattr__(self, "alpha_exponents", tuple(sorted(alphas)))
        ts = []
        for exponent in self.t_exponents:
            if isinstance(exponent, bool) or not isinstance(exponent, int):
                raise TypeError("character exponents must be integers")
            ts.append(exponent)
        object.__setattr__(self, "t_exponents", tuple(ts))

    def is_constant_character(self) -> bool:
        return all(e == 0 for _, e in self.alpha_exponents) and all(
            e == 0 for e in self.t_exponents
        )


TowerStep = Union[ProductStep, NodeStep]


@dataclass(frozen=True)
class TowerSpec:
    """A tower over an affine base of dimension p; steps describe the
    levels 2..d in order, so level i has torus dimension i - 1 + p."""

    p: int
    steps: tuple[TowerStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def top_level(self) -> int:
        return len(self.steps) + 1

    def level_of(self, index: int) -> int:
        return index + 2


@dataclass(frozen=True)
class GermData:
    """A one-dimensional germ mapping into the base: c_j is the vanishing
    order of the pullback of the j-th base coordinate at the chosen point,
    and at_boundary records whether the point lies on the boundary divisor.
    When it does not, the pulled-back characters carry no germ coordinate.
    """

    c: tuple[int, ...]
    at_boundary: bool

    def __post_init__(self) -> None:
        orders = tuple(self.c)
        for value in orders:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError("vanishing orders must be integers")
            if value < 0:
                raise ValueError("vanishing orders must be non-negative")
        object.__setattr__(self, "c", orders)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    level: int | None
    message: str


def validate(spec: TowerSpec) -> tuple[Diagnostic, ...]:
    """Index-range and integrality diagnostics for a tower.

    Violations are errors; the constant-1 character is permitted (it is a
    nonzero character) but flagged as degenerate with a warning.
    """
    found: list[Diagnostic] = []
    if spec.p < 1:
        found.append(Diagnostic("error", None, "base dimension p must be >= 1"))
    for index, step in enumerate(spec.steps):
        level = spec.level_of(index)
        if isinstance(step, ProductStep):
            continue
        if not isinstance(step, NodeStep):
            found.append(Diagnostic("error", level, f"level {level}: unknown step kind"))
            continue
        seen = set()
        for var_level, _ in step.alpha_exponents:
            if var_level in seen:
                found.append(
                    Diagnostic(
                        "error", level, f"level {level}: duplicate exponent for alpha_{var_level}"
                    )
                )
            seen.add(var_level)
            if not 2 <= var_level <= level - 1:
                found.append(
                    Diagnostic(
                        "error", level, f"level {level} may not reference alpha_{var_level}"
                    )
                )
        if len(step.t_exponents) != spec.p:
            found.append(
                Diagnostic(
                    "error",
                    level,
                    f"level {level}: expected {spec.p} base exponents, got {len(step.t_exponents)}",
                )
            )
        if step.is_constant_character():
            found.append(
                Diagnostic(
                    "warning", level, f"level {level}: character is the constant 1 (degenerate)"
                )
            )
    return tuple(found)


def validation_errors(spec: TowerSpec) -> tuple[Diagnostic, ...]:
    return tuple(d for d in validate(spec) if d.severity == "error")


def torus_dimension(spec: TowerSpec, level: int) -> int:
    """Torus dimension at a level: level - 1 + p (the base alone at level 1)."""
    if not 1 <= level <= spec.top_level:
        raise ValueError(f"level must lie in 1..{spec.top_level}")
    return level - 1 + spec.p


def pullback_tower(spec: TowerSpec, germ: GermData) -> TowerSpec:
    """Base change the tower to a one-dimensional germ.

    Step kinds are preserved; a node character keeps its level exponents
    and its base exponents collapse to the single order sum(c_j * n_j).
    Away from the boundary the germ coordinate cannot appear, so the
    collapsed exponent is forced to zero there.
    """
    if len(germ.c) != spec.p:
        raise ValueError("germ order vector length does not match the base dimension")
    steps: list[TowerStep] = []
    for step in spec.steps:
        if isinstance(step, ProductStep):
            steps.append(ProductStep())
            continue
        order = sum(cj * nj for cj, nj in zip(germ.c, step.t_exponents))
        if not germ.at_boundary:
            order = 0
        steps.append(NodeStep(step.alpha_exponents, (order,)))
    return TowerSpec(p=1, steps=tuple(steps))
