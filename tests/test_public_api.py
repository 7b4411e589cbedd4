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
