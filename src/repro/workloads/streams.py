"""Counter-based deterministic random streams for huge populations.

The open-loop engine must hand out i.i.d. draws to up to a million
virtual clients without materialising a million ``numpy`` Generator
objects — and, crucially, the *aggregated* flow generator and the
*explicit* per-client reference implementation must consume exactly the
same numbers so their request schedules are byte-identical
(:mod:`repro.workloads.openloop`).

Both needs are met by a stateless counter-based construction: draw
``k`` of stream ``(seed, client, tag)`` is a pure function of its key,

    ``u = u01(seed, client, k, tag)``

computed with the SplitMix64 finalizer (Steele et al., *Fast Splittable
Pseudorandom Number Generators*, OOPSLA'14) over the mixed key words.
SplitMix64 is a bijective avalanche mix — every output bit depends on
every input bit — so structured keys (sequential client ids, sequential
counters) still yield decorrelated uniforms.  There is no hidden state:
any engine that agrees on the key derivation reproduces the stream in
any order, which is the exactness guarantee the aggregation relies on.

All uniforms land in the *open* interval (0, 1): the transforms below
take logs and reciprocals, and an exact 0.0 or 1.0 must be impossible.

:func:`u01_array` evaluates the same function over an array of client
ids with wrapping ``uint64`` numpy arithmetic.  It is bit-identical to
:func:`u01` (``tests/test_openloop.py`` checks the bit patterns), so a
vectorized pass over a whole population draws exactly the numbers the
scalar path would.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import numpy.typing as npt

__all__ = [
    "u01",
    "u01_array",
    "exp_gap",
    "pareto",
    "lognormal",
    "TAG_GAP",
    "TAG_OBJ",
    "TAG_SIZE",
    "TAG_STATE",
    "TAG_CLASS",
]

#: draw-purpose tags: distinct tags give independent streams for the
#: same (seed, client, counter) triple
TAG_GAP = 0x67617000      # inter-arrival gap draws
TAG_OBJ = 0x6F626A00      # object-popularity draws
TAG_SIZE = 0x737A0000     # request-size draws
TAG_STATE = 0x73740000    # on/off state-duration draws
TAG_CLASS = 0x636C0000    # population-class assignment draws

_MASK = (1 << 64) - 1
#: golden-ratio increment of the SplitMix64 sequence
_GAMMA = 0x9E3779B97F4A7C15
_NORM = NormalDist()
_log = math.log
_exp = math.exp


def _mix(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijection with full avalanche."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def u01(seed: int, client: int, k: int, tag: int) -> float:
    """Uniform draw in (0, 1) for draw ``k`` of stream ``(seed, client,
    tag)`` — stateless, order-independent, PYTHONHASHSEED-immune."""
    z = _mix((seed * _GAMMA + client) & _MASK)
    z = _mix((z + k * _GAMMA + tag) & _MASK)
    # map to (0, 1): use the top 53 bits, then nudge 0 to the smallest
    # representable draw so log()/reciprocal transforms never see 0
    return ((z >> 11) + 0.5) * (1.0 / (1 << 53))


_U64 = np.uint64
_C30, _C27, _C31, _C11 = _U64(30), _U64(27), _U64(31), _U64(11)
_M1, _M2 = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)


def _mix_array(z: npt.NDArray[np.uint64]) -> npt.NDArray[np.uint64]:
    """:func:`_mix` over a ``uint64`` array, in place: numpy's
    ``uint64`` multiply wraps modulo 2**64 exactly like ``& _MASK``."""
    z ^= z >> _C30
    z *= _M1
    z ^= z >> _C27
    z *= _M2
    z ^= z >> _C31
    return z


def u01_array(
    seed: int, clients: npt.NDArray[np.uint64], k: int, tag: int
) -> npt.NDArray[np.float64]:
    """:func:`u01` for every client id in ``clients`` (a ``uint64``
    array), bit-identical to the scalar draws."""
    z = clients + _U64((seed * _GAMMA) & _MASK)
    z = _mix_array(z)
    z += _U64((k * _GAMMA + tag) & _MASK)
    z = _mix_array(z)
    # (z >> 11) < 2**53 converts exactly; "+ 0.5" then rounds exactly as
    # the scalar int + float sum does, and the power-of-two scale is exact
    u = (z >> _C11).astype(np.float64)
    u += 0.5
    u *= 1.0 / (1 << 53)
    return u


def exp_gap(u: float, rate_hz: float) -> float:
    """Exponential inter-arrival gap in **nanoseconds** for a Poisson
    process of ``rate_hz`` events per simulated second."""
    return -_log(u) / rate_hz * 1e9


def pareto(u: float, alpha: float, x_min: float) -> float:
    """Pareto(Type I) draw: ``x_min * u^(-1/alpha)`` — the heavy-tailed
    workhorse for object sizes and on/off burst durations."""
    return x_min * u ** (-1.0 / alpha)


def lognormal(u: float, median: float, sigma: float) -> float:
    """Lognormal draw via the inverse normal CDF: ``median *
    exp(sigma * z)`` with ``z = Phi^-1(u)``.  One uniform per draw keeps
    the per-client draw counters trivially aligned between engines."""
    return median * _exp(sigma * _NORM.inv_cdf(u))
