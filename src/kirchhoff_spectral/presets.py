"""Built-in (omega, phi, m) bundles for the compatibility-condition suite.

The bundles fall into four tables, named by the prefix of each bundle's
name, and the table fixes the hyperbolicity mode the pair is checked in and
its regime.  The existence-regime bundles pair a continuity modulus with a
weight that keeps the compatibility ratio bounded in that mode; the
loss-regime bundles carry a logarithmically thinner weight for which the
ratio diverges, the territory of the derivative-loss constructions.  Each
bundle also names a representative nonlinearity with the advertised modulus
of continuity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functions import (
    FunctionSpec,
    affine,
    modulus_inv_log,
    modulus_power,
    modulus_sigma_log,
    offset,
    power,
    weight_power_log,
    weight_scaled_modulus,
)

_HOLDER_BETA = 0.5
# table -> (hyperbolicity mode, whether its pairs are in the loss regime)
_TABLES = {"table1": ("strict", False), "table2": ("weak", False),
           "table3": ("strict", True), "table4": ("weak", True)}


@dataclass(frozen=True)
class PresetBundle:
    """One (omega, phi, m) pair; its name's prefix is its table."""

    name: str
    omega: FunctionSpec
    phi: FunctionSpec
    m: FunctionSpec
    row: str

    def __post_init__(self):
        if self.family not in _TABLES:
            raise ValueError(f"preset {self.name!r} names no table of {sorted(_TABLES)}")

    @property
    def family(self) -> str:
        return self.name.split("_", 1)[0]

    @property
    def mode(self) -> str:
        return _TABLES[self.family][0]

    @property
    def loss_regime(self) -> bool:
        return _TABLES[self.family][1]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "loss_regime": self.loss_regime,
            "omega": self.omega.to_dict(),
            "phi": self.phi.to_dict(),
            "m": self.m.to_dict(),
            "family": self.family,
            "row": self.row,
        }


def _bundles() -> tuple[PresetBundle, ...]:
    holder = modulus_power(_HOLDER_BETA)
    lipschitz = modulus_power(1.0)
    log_lip = modulus_sigma_log(1.0)
    just_cont = modulus_inv_log(0.5)

    return (
        PresetBundle(
            name="table1_analytic",
            omega=holder,
            phi=weight_power_log(1.0),
            m=offset(1.0, power(_HOLDER_BETA)),
            row="continuous nonlinearity, analytic weight (never optimal)",
        ),
        PresetBundle(
            name="table1_optimal_scaled",
            omega=holder,
            phi=weight_scaled_modulus(holder),
            m=offset(1.0, power(_HOLDER_BETA)),
            row="continuous nonlinearity, weight sigma*omega(1/sigma)",
        ),
        PresetBundle(
            name="table1_holder",
            omega=holder,
            phi=weight_power_log(1.0 - _HOLDER_BETA),
            m=offset(1.0, power(_HOLDER_BETA)),
            row="Hoelder-continuous nonlinearity, weight sigma^(1-beta)",
        ),
        PresetBundle(
            name="table1_loglipschitz",
            omega=log_lip,
            phi=weight_power_log(0.0, 1.0),
            m=offset(1.0, log_lip),
            row="log-Lipschitz nonlinearity, weight log(sigma)",
        ),
        PresetBundle(
            name="table1_lipschitz",
            omega=lipschitz,
            phi=weight_power_log(0.0),
            m=affine(1.0, 1.0),
            row="Lipschitz nonlinearity, constant weight",
        ),
        PresetBundle(
            name="table2_analytic",
            omega=holder,
            phi=weight_power_log(1.0),
            m=power(_HOLDER_BETA),
            row="continuous degenerate nonlinearity, analytic weight",
        ),
        PresetBundle(
            name="table2_holder_beta",
            omega=holder,
            phi=weight_power_log(2.0 / (_HOLDER_BETA + 2.0)),
            m=power(_HOLDER_BETA),
            row="Hoelder degenerate nonlinearity, weight sigma^(2/(beta+2))",
        ),
        PresetBundle(
            name="table2_lipschitz",
            omega=lipschitz,
            phi=weight_power_log(2.0 / 3.0),
            m=power(1.0),
            row="Lipschitz degenerate nonlinearity, weight sigma^(2/3)",
        ),
        PresetBundle(
            name="table3_loglog",
            omega=just_cont,
            phi=weight_power_log(1.0, -1.0),
            m=offset(0.5, just_cont),
            row="just-continuous nonlinearity, weight sigma/log(sigma)",
        ),
        PresetBundle(
            name="table3_holder_log",
            omega=holder,
            phi=weight_power_log(1.0 - _HOLDER_BETA, -1.0),
            m=offset(1.0, power(_HOLDER_BETA)),
            row="Hoelder nonlinearity, weight sigma^(1-beta)/log(sigma)",
        ),
        PresetBundle(
            name="table3_loglipschitz_cubed",
            omega=holder,
            phi=weight_power_log(0.0, 2.0),
            m=offset(0.5, modulus_sigma_log(3.0)),
            row="almost-Lipschitz nonlinearity, weight log(sigma)^2",
        ),
        PresetBundle(
            name="table4_holder_log",
            omega=holder,
            phi=weight_power_log(2.0 / (_HOLDER_BETA + 2.0), -1.0),
            m=power(_HOLDER_BETA),
            row="Hoelder degenerate nonlinearity, log-thinned weight",
        ),
        PresetBundle(
            name="table4_lipschitz_log",
            omega=lipschitz,
            phi=weight_power_log(2.0 / 3.0, -1.0),
            m=power(1.0),
            row="Lipschitz degenerate nonlinearity, log-thinned weight",
        ),
    )


_CATALOG = {b.name: b for b in _bundles()}


def list_presets() -> list[PresetBundle]:
    """Stable, name-sorted preset catalog."""
    return [_CATALOG[name] for name in sorted(_CATALOG)]


def get_preset(name: str) -> PresetBundle:
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise KeyError(f"unknown preset {name!r}; available: {known}") from None
