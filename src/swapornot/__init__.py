"""Swap-or-not small-domain cipher toolkit.

A cipher over any finite domain [N] built from one-bit round functions, its
tweakable variant, a format-preserving encryption layer for radix strings,
a calculator for the construction's provable advantage bounds, and an exact
verifier that the shuffle's mixing respects those bounds on small decks.

Importing the package loads none of its modules.  A public name is imported
from its module on first access (PEP 562) and then kept here: the FPE names
load ``errors``, ``domain``, ``prf``, ``cipher`` and ``fpe``; the planner
(``bounds``) loads on the first planned call or use of a bound name, and the
mixing verifier (``mixing``) on first use of one of its names; neither loads
``prf`` or ``cipher``.  ``swapornot.cli`` loads ``bounds`` and ``mixing``, and
only its ``encrypt``, ``decrypt`` and ``vectors`` commands load the FPE names.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    **dict.fromkeys(
        ["BoundQuery", "Model", "cca_bound", "cca_tweak_bound", "min_rounds", "ncpa_bound",
         "ncpa_tweak_bound", "thorp_bound"],
        "bounds",
    ),
    **dict.fromkeys(
        ["BitSource", "CallableSource", "ConstantSource", "DerivedSource", "IdealSource",
         "RoundMaterial", "RoundStep", "decipher", "encipher", "encipher_traced"],
        "cipher",
    ),
    **dict.fromkeys(["Domain", "GroupLaw"], "domain"),
    **dict.fromkeys(["DomainError", "ParameterError", "RoundCapExceeded"], "errors"),
    **dict.fromkeys(
        ["FormatSpec", "decode_digits", "encode_digits", "fpe_decrypt", "fpe_encrypt",
         "plan_rounds"],
        "fpe",
    ),
    **dict.fromkeys(
        ["ProjectedDistribution", "ShuffleSample", "exact_tvd_after", "shuffle_sample", "step",
         "tvd_to_stationary", "validation_grid"],
        "mixing",
    ),
    **dict.fromkeys(
        ["PRF_ID", "PrfKey", "TweakDigest", "derive_subkeys", "round_bit", "tweak_digest"], "prf"
    ),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
