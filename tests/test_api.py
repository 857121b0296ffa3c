"""The package's public surface."""

import deepkm
from deepkm import harness


def test_every_public_name_resolves():
    assert len(set(deepkm.__all__)) == len(deepkm.__all__)
    for name in deepkm.__all__:
        assert hasattr(deepkm, name), name


def test_method_order_is_pinned():
    # Suites and the benchmark iterate METHODS: its order fixes the order
    # of reports, the bytes of suite.tsv and the summation order of means.
    assert harness.METHODS == ("km", "aekm", "dcn", "dkm", "dkm_rein", "ours", "ours_norein")
    assert deepkm.METHODS is harness.METHODS
