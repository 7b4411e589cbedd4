import importlib
import os
import subprocess
import sys
from pathlib import Path

import swapornot

# The public surface, pinned: removing or renaming a name here is an API break.
PUBLIC_NAMES = [
    "BitSource",
    "BoundQuery",
    "CallableSource",
    "ConstantSource",
    "DerivedSource",
    "Domain",
    "DomainError",
    "FormatSpec",
    "GroupLaw",
    "IdealSource",
    "Model",
    "PRF_ID",
    "ParameterError",
    "PrfKey",
    "ProjectedDistribution",
    "RoundCapExceeded",
    "RoundMaterial",
    "RoundStep",
    "ShuffleSample",
    "TweakDigest",
    "cca_bound",
    "cca_tweak_bound",
    "decipher",
    "decode_digits",
    "derive_subkeys",
    "encipher",
    "encipher_traced",
    "encode_digits",
    "exact_tvd_after",
    "fpe_decrypt",
    "fpe_encrypt",
    "min_rounds",
    "ncpa_bound",
    "ncpa_tweak_bound",
    "plan_rounds",
    "round_bit",
    "shuffle_sample",
    "step",
    "thorp_bound",
    "tvd_to_stationary",
    "tweak_digest",
    "validation_grid",
]


def test_all_is_pinned():
    assert swapornot.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert all(hasattr(swapornot, name) for name in PUBLIC_NAMES)


def test_every_public_name_is_its_home_modules_object():
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"swapornot.{swapornot._HOMES[name]}")
        value = getattr(swapornot, name)
        assert value is getattr(module, name), name
        # The home defines the name, so loading it loads nothing more than needed.
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from swapornot import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(swapornot))


def test_fpe_loads_neither_the_planner_nor_the_verifier():
    # A fresh interpreter: explicit rounds load no bounds, mixing or cli, and
    # the first planned call loads the planner.
    script = (
        "import sys\n"
        "from swapornot import PrfKey, fpe\n"
        "key, spec = PrfKey(bytes(32)), fpe.FormatSpec(10, 9)\n"
        "fpe.fpe_encrypt(key, spec, '123456789', b'', 10)\n"
        "layers = ['swapornot.bounds', 'swapornot.mixing', 'swapornot.cli']\n"
        "print([m for m in layers if m in sys.modules])\n"
        "fpe.fpe_encrypt(key, spec, '123456789', b'', queries=10**6)\n"
        "print([m for m in layers if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "['swapornot.bounds']"]
