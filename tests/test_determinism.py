"""The determinism contract, pinned.

A Monte Carlo table is a pure function of (source, n, reps, seed, l_max)
within one version, where a version is this package plus numpy's
``Generator.random`` stream.  The stream digests fail alone when numpy
changes the stream (its policy is NEP 19); the table digests fail when
either side changes.  Every digest was computed before the urn ran in
passes of several stream blocks, and the passes keep them; the
``population-wide`` digest was computed before populations ran in passes.
"""

import hashlib

import numpy as np
import pytest

from goodturing.empirical import FinitePopulation
from goodturing.gibbs import TabularGibbsModel
from goodturing.pitman_yor import PitmanYor
from goodturing.sampler import monte_carlo_moments


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


STREAMS = {
    (0, 0): "7eaf3168ef8150e60745193d9afcd72c6b1218c71791c4283214b4feb2108ddd",
    (1, 0): "9ae6875ee2d535ad2a4780960ed443f7101080feebda6975a02d678d7914e6c1",
    (1, 3): "efb977b7d09de094e01bc215698c7504e37cf57cb43c99c2968733b342b69483",
    (1444, 0): "f8a02d4a6ab140fb499934f100dccb720e0e50dbc61df971e537d0448d3b1921",
    (2**40 + 5, 7): "631a17849050685d1b39935f4eaca2003c0b8d1cdcd98b9b4892765e64dfa0a5",
}


@pytest.mark.parametrize("key", sorted(STREAMS))
def test_stream_digest(key):
    assert _digest(np.random.default_rng(key).random(1000)) == STREAMS[key]


def test_filling_a_slice_draws_the_same_doubles():
    # a pass writes each stream block into its own rows of one array
    want = np.random.default_rng((3, 1)).random((7, 11))
    out = np.full((10, 11), np.nan)
    np.random.default_rng((3, 1)).random(out=out[2:9])
    np.testing.assert_array_equal(out[2:9], want)


def _alias_population(s=40):
    w = np.linspace(1.0, 3.0, s)
    return FinitePopulation(w / w.sum())


#: kind -> (source, n, reps, seed, l_max, digest of the means and standard
#: errors); every size spans several passes.  Only ``population-wide`` has
#: more species than draws
TABLES = {
    "pitman-yor": (
        lambda: PitmanYor(0.5, 1.0), 1000, 1000, 4, 20,
        "e8beba82f3b1c571ad7ec2ca9c91d2de2705ceb933205b958113a34a08672e64",
    ),
    "negative-alpha": (
        lambda: PitmanYor(-0.5, s=50), 300, 1200, 6, 20,
        "3009f8bf0327c213a3a55df8b947baff0af4abb8a7f93abe17fead44c0896fac",
    ),
    "tabular": (
        lambda: TabularGibbsModel.from_bottom_row(0.3, np.linspace(0.5, 2.0, 100)), 100, 6000, 9, 20,
        "6c229e5bae4ca23e6c692f7bb023ae533d85d1b2b3fd64f25cfbf58ae741079d",
    ),
    "population-scan": (
        lambda: FinitePopulation([0.4, 0.3, 0.2, 0.1]), 50, 2000, 10, 20,
        "bd7ceb87334ae10a57c04c8d5fa1f7d1a1cddb68316972d57c7478ffdc56c45a",
    ),
    "population-alias": (
        _alias_population, 60, 3000, 11, 20,
        "918d493582c09bc9d70de79547e8b70593b7a7416475b6ddf589947cd4119a5a",
    ),
    "population-wide": (
        lambda: _alias_population(1000), 50, 3000, 13, 50,
        "046f4f4395b0d7b33182cb3b062006caa9e8ab08274451363adaf02fa693be6d",
    ),
}


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_moment_table_digest(kind):
    make, n, reps, seed, l_max, want = TABLES[kind]
    table = monte_carlo_moments(make(), n, reps, seed, l_max=l_max)
    assert _digest(table.means, table.ses) == want
