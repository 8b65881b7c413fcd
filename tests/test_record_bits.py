"""Record bits pinned: the decision outputs of small runs hash to fixed values.

Every change that claims bit-identical records is checked here, not only
in a benchmark's fingerprints.  Each run hashes its drawn sizes, per-level
tallies and stop histograms, final level, and the reprs of its raw
estimate and total cost.  Both models charge integer works at integer q,
so those runs' costs are exact sums whatever the order of additions; the
q = 1.5 runs also pin the float sums of fractional works.  When a change
alters the records on purpose, recapture the table with
``PYTHONPATH=src python tests/test_record_bits.py`` and say why in the
change.
"""

import hashlib

import pytest

from mlmcsr.driver import OutcomeStore, run_mc_baseline, run_mlmc_sr
from mlmcsr.estimators import EstimatorConfig
from mlmcsr.models import EllipticFlux1D, SyntheticNormalModel

RUNNERS = {"mlmc-sr": run_mlmc_sr, "mc": run_mc_baseline}


def decisions(record):
    """The record's decision outputs as one canonical string."""
    levels = [(ls.level, ls.n_drawn, ls.tally.n_plus, ls.tally.n_minus,
               ls.histogram.tolist()) for ls in record.per_level]
    return repr((record.method, record.n_drawn, levels, record.final_L,
                 repr(record.estimate_raw), repr(record.total_cost)))


def digest(records):
    text = "\n".join(decisions(r) for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def synthetic(method, q, epsilon=0.01, seed=3, chunk=None):
    model = SyntheticNormalModel(q=q)
    if chunk is not None:
        model.batch_chunk = chunk
    return [RUNNERS[method](model, EstimatorConfig(y=0.8, epsilon=epsilon, q=q), seed)]


def single_row_pilot():
    """mc with N = 1: each pilot level opens with gamma**-L rows, level 1 with two."""
    model = SyntheticNormalModel(q=2.0)
    return [run_mc_baseline(model, EstimatorConfig(y=0.8, epsilon=0.05, q=2.0, N=1), 4)]


def grid(method, epsilons, q=2.0, seed=8):
    """The runs of one seed over an epsilon grid sharing one OutcomeStore,
    in chunks small enough that the store serves some and not others."""
    model = SyntheticNormalModel(q=q)
    model.batch_chunk = 1000
    configs = [EstimatorConfig(y=0.8, epsilon=e, q=q) for e in epsilons]
    store = OutcomeStore(model, seed, configs[0])
    return [RUNNERS[method](model, c, seed, store=store) for c in configs]


def elliptic(method, threads):
    model = EllipticFlux1D(master_cells=64)
    return [RUNNERS[method](model, EstimatorConfig(y=0.99, epsilon=0.02), 6, threads=threads)]


CASES = {
    **{f"{m}-q{q}": (synthetic, m, q) for m in RUNNERS for q in (1.0, 1.5, 2.0, 3.0)},
    **{f"{m}-chunk97": (synthetic, m, 2.0, 0.02, 5, 97) for m in RUNNERS},
    **{f"{m}-grid-{order}": (grid, m, eps)
       for m in RUNNERS
       for order, eps in (("ascending", [0.01, 0.02, 0.04]),
                          ("descending", [0.04, 0.02, 0.01]))},
    **{f"{m}-elliptic-threads{t}": (elliptic, m, t) for m in RUNNERS for t in (1, 2)},
    "mc-N1": (single_row_pilot,),
}

PINNED = {
    'mc-chunk97': 'ac6ffeeaa8c37024',
    'mc-N1': '4cf9310240cce047',
    'mc-elliptic-threads1': 'ca2869068e90d4ed',
    'mc-elliptic-threads2': 'ca2869068e90d4ed',
    'mc-grid-ascending': 'f1187a3d8adee657',
    'mc-grid-descending': '9fc3782401c05119',
    'mc-q1.0': '4ee5f9d0bacb8f03',
    'mc-q1.5': '5b6ebb952eb667d2',
    'mc-q2.0': 'd0e648235b7f6034',
    'mc-q3.0': '6be1cc8d209f0e4f',
    'mlmc-sr-chunk97': '2670e8336c29d10b',
    'mlmc-sr-elliptic-threads1': 'd5b2efeb58af613b',
    'mlmc-sr-elliptic-threads2': 'd5b2efeb58af613b',
    'mlmc-sr-grid-ascending': '3b2601e7fcbae48e',
    'mlmc-sr-grid-descending': '0df6e95564bf1329',
    'mlmc-sr-q1.0': '07190106909d9f0a',
    'mlmc-sr-q1.5': 'bf97d022c925f3d9',
    'mlmc-sr-q2.0': '9969ae0d5f1878e0',
    'mlmc-sr-q3.0': '9226e91c4ab43fb2',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_records_match_their_pinned_hash(case):
    build, *args = CASES[case]
    assert digest(build(*args)) == PINNED[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        build, *args = CASES[case]
        print(f"    {case!r}: {digest(build(*args))!r},")
