import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import swapornot
from swapornot import (
    DerivedSource,
    Domain,
    FormatSpec,
    PrfKey,
    ProjectedDistribution,
    RoundMaterial,
    decipher,
    encipher,
    fpe_encrypt,
    step,
    tvd_to_stationary,
)
from swapornot.cipher import STATE_USES, _IdealKey

from helpers import partner

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


def test_analysis_commands_never_load_the_crypto_stack():
    # A fresh interpreter: the cli loads the planner and the verifier, the
    # analysis commands load no PRF, cipher, FPE or hashlib, and encrypt loads them.
    script = (
        "import contextlib, io, sys\n"
        "from swapornot.cli import cli_main\n"
        "crypto = ['swapornot.prf', 'swapornot.cipher', 'swapornot.fpe', 'hashlib']\n"
        "def loaded():\n"
        "    return [m for m in crypto if m in sys.modules]\n"
        "print(['swapornot.bounds' in sys.modules, 'swapornot.mixing' in sys.modules], loaded())\n"
        "commands = [\n"
        "    ['mixlab', '--max-n', '4'],\n"
        "    ['bounds', '--N', '1024', '--rounds', '60', '--q', '512'],\n"
        "    ['minrounds', '--N', '1024', '--q', '16', '--target-adv', '1e-6'],\n"
        "    ['shuffle', '--n', '8', '--rounds', '4', '--seed', '7'],\n"
        "]\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "    codes = [cli_main(argv) for argv in commands]\n"
        "print(codes, loaded())\n"
        "key = '00' * 32\n"
        "with contextlib.redirect_stdout(sink):\n"
        "    code = cli_main(['encrypt', '--key', key, '--radix', '10', '--length', '9',\n"
        "                     '--rounds', '10', '123456789'])\n"
        "print(code, loaded())\n"
        "from swapornot import Domain, encipher, mixing\n"
        "domain = Domain(8)\n"
        "sample = mixing.shuffle_sample(domain, 4, 7)\n"
        "material = sample.material()\n"
        "print([encipher(domain, material, x) for x in range(8)] == list(sample.permutation))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[True, True] []",
        "[0, 0, 0, 0] []",
        "0 ['swapornot.prf', 'swapornot.cipher', 'swapornot.fpe', 'hashlib']",
        "True",
    ]


SEED = bytes(range(32))


def derived_material() -> RoundMaterial:
    # Reused until its key keeps the schedule's round states.
    key = PrfKey(SEED)
    for _ in range(STATE_USES):
        material = RoundMaterial.derived(Domain(1000), 12, key)
    return material


def public_material() -> RoundMaterial:
    return RoundMaterial(tuple(range(0, 1000, 83)), DerivedSource(PrfKey(SEED)))


def ciphered(material: RoundMaterial) -> list[int]:
    d = Domain(1000)
    return [f(d, material, x, b"t") for f in (encipher, decipher) for x in (0, 7, 999)]


def keyed(key: PrfKey) -> tuple:
    return key.block(b"x"), ciphered(RoundMaterial.derived(Domain(1000), 12, key))


def formatted(spec: FormatSpec) -> tuple:
    return spec._mod_add, spec.domain(), fpe_encrypt(PrfKey(SEED), spec, "123456", b"t", 12)


def stepped(dist: ProjectedDistribution) -> tuple:
    return tvd_to_stationary(dist), step(dist)


# Each value with a function of it that shows how it works.
VALUES = {
    "derived-material": (derived_material, ciphered),
    "derived-material-reversed": (lambda: derived_material().reversed(), ciphered),
    "public-material": (public_material, ciphered),
    "public-material-reversed": (lambda: public_material().reversed(), ciphered),
    "prf-key": (lambda: PrfKey(SEED), keyed),
    "ideal-key": (lambda: _IdealKey(SEED), keyed),
    "format-spec": (lambda: FormatSpec(10, 6), formatted),
    "domain": (lambda: Domain.xor_bits(10), lambda d: (partner(d, 3, 5), d.size, d.law)),
    "stepped-distribution": (
        lambda: step(step(ProjectedDistribution.point_mass(Domain(6), (0, 1)))),
        stepped,
    ),
}


@pytest.mark.parametrize("make,behavior", VALUES.values(), ids=VALUES.keys())
def test_values_survive_pickle_and_copy(make, behavior):
    value = make()
    expected = behavior(value)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
        assert behavior(clone) == expected
