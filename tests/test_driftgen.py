"""Synthetic stream generation, drift transforms, and drift accounting."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftvote
from driftvote import (
    BlockSpec,
    Stream,
    SyntheticStreamConfig,
    apply_permute_drift,
    block_drift_preset,
    generate_synthetic,
    resolve_abstentions,
    role_rngs,
    true_drift_error,
)
from driftvote.driftgen import _block_resolver


def two_block_config(seed=11):
    return SyntheticStreamConfig(
        blocks=(
            BlockSpec(100, (0.9, 0.9, 0.6)),
            BlockSpec(100, (0.6, 0.9, 0.9)),
        ),
        seed=seed,
        n=3,
    )


def test_layout_and_accuracy_path():
    cfg = two_block_config()
    assert cfg.length == 200
    path = cfg.accuracy_path()
    assert path.shape == (200, 3)
    assert path[0].tolist() == [0.9, 0.9, 0.6]
    assert path[99].tolist() == [0.9, 0.9, 0.6]
    assert path[100].tolist() == [0.6, 0.9, 0.9]
    assert path[199].tolist() == [0.6, 0.9, 0.9]


def test_config_validation():
    with pytest.raises(ValueError):
        BlockSpec(0, (0.9,))
    for length in (2.5, 3.0, True, np.True_):  # a length that is no integer
        with pytest.raises(ValueError, match="block length must be an integer"):
            BlockSpec(length, (0.9,))
    assert BlockSpec(np.int64(3), (0.9,)).length == 3
    with pytest.raises(ValueError):
        BlockSpec(5, ())
    with pytest.raises(ValueError):
        BlockSpec(5, (0.9, 1.0))
    with pytest.raises(ValueError):
        SyntheticStreamConfig(blocks=(), seed=0, n=3)
    with pytest.raises(ValueError):
        SyntheticStreamConfig(blocks=(BlockSpec(5, (0.9, 0.8)),), seed=0, n=3)
    # a value that is no number of its kind is named by its field
    for bad in ("a", None, 1j, True, np.True_):
        with pytest.raises(ValueError, match="^accuracies must be a real number, got "):
            BlockSpec(10, (0.9, bad))
    block = BlockSpec(5, (0.9, np.float32(0.8), 0.7))
    for n in (3.0, True, "3"):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            SyntheticStreamConfig(blocks=(block,), seed=0, n=n)
    for seed in (True, 1.5, "1", None):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            SyntheticStreamConfig(blocks=(block,), seed=seed, n=3)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        SyntheticStreamConfig(blocks=(block,), seed=-1, n=3)
    numpy_ints = generate_synthetic(SyntheticStreamConfig(blocks=(block,), seed=np.int64(7), n=np.int64(3)))
    python_ints = generate_synthetic(SyntheticStreamConfig(blocks=(block,), seed=7, n=3))
    assert np.array_equal(numpy_ints.votes, python_ints.votes)


def test_generate_shapes_and_annotations():
    cfg = two_block_config()
    stream = generate_synthetic(cfg)
    assert len(stream) == 200
    assert stream.votes.shape == (200, 3)
    assert stream.votes.dtype == np.int8
    assert set(np.unique(stream.votes)) <= {-1, 1}
    assert set(np.unique(stream.truth)) <= {-1, 1}
    assert stream.block.tolist() == [0] * 100 + [1] * 100


def test_generate_is_deterministic():
    a = generate_synthetic(two_block_config(seed=3))
    b = generate_synthetic(two_block_config(seed=3))
    assert np.array_equal(a.votes, b.votes)
    assert np.array_equal(a.truth, b.truth)
    c = generate_synthetic(two_block_config(seed=4))
    assert not np.array_equal(a.votes, c.votes)


def test_empirical_accuracies_match_blocks():
    cfg = SyntheticStreamConfig(
        blocks=(BlockSpec(20_000, (0.9, 0.75, 0.6)),), seed=5, n=3
    )
    stream = generate_synthetic(cfg)
    hit = (stream.votes == stream.truth[:, None]).mean(axis=0)
    assert np.allclose(hit, [0.9, 0.75, 0.6], atol=0.015)


def test_truth_is_roughly_balanced():
    stream = generate_synthetic(
        SyntheticStreamConfig(blocks=(BlockSpec(20_000, (0.9,) * 3),), seed=6, n=3)
    )
    assert abs(float(np.mean(stream.truth))) < 0.03


def test_matched_pairs_share_truth_and_noise():
    """Changing block accuracies must not reshuffle the truth sequence, and
    the shared uniform draws couple the two streams monotonically: any step
    a weaker labeler gets right, its stronger twin gets right too."""
    strong = SyntheticStreamConfig(blocks=(BlockSpec(5000, (0.9,) * 3),), seed=21, n=3)
    weak = SyntheticStreamConfig(blocks=(BlockSpec(5000, (0.6,) * 3),), seed=21, n=3)
    a = generate_synthetic(strong)
    b = generate_synthetic(weak)
    assert np.array_equal(a.truth, b.truth)
    weak_right = b.votes == b.truth[:, None]
    strong_right = a.votes == a.truth[:, None]
    assert np.all(strong_right[weak_right])
    assert strong_right.sum() > weak_right.sum()


def test_role_streams_are_independent():
    rngs = role_rngs(99)
    assert set(rngs) == {"truth", "votes", "abstain", "permute"}
    draws = {role: rng.random(4).tolist() for role, rng in rngs.items()}
    vals = [tuple(v) for v in draws.values()]
    assert len(set(vals)) == len(vals)
    again = role_rngs(99)
    assert again["votes"].random(4).tolist() == draws["votes"]


def test_resolve_abstentions_fills_only_zeros():
    votes = np.array([[1, 0, -1], [0, 0, 1], [1, 1, -1]], dtype=np.int8)
    out = resolve_abstentions(votes, 0)
    assert out.shape == votes.shape
    nonzero = votes != 0
    assert np.array_equal(out[nonzero], votes[nonzero])
    assert np.all(np.abs(out) == 1)
    # input must not be mutated
    assert votes[0, 1] == 0


def test_resolve_abstentions_deterministic_and_fair():
    votes = np.zeros((20_000, 3), dtype=np.int8)
    a = resolve_abstentions(votes, 12)
    b = resolve_abstentions(votes, 12)
    c = resolve_abstentions(votes, 13)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(float(a.mean())) < 0.02  # fair coin fill


def test_resolve_abstentions_accepts_vector_and_rejects_junk():
    out = resolve_abstentions([1, 0, -1], 0)
    assert out.shape == (3,)
    assert out[0] == 1 and out[2] == -1 and out[1] in (-1, 1)
    with pytest.raises(ValueError):
        resolve_abstentions([1, 2, -1], 0)


@pytest.mark.parametrize(
    "votes", [np.array([1 + 0j, 0, -1]), np.array([[1j, 1], [0, -1]])], ids=["real", "imaginary"]
)
def test_resolve_abstentions_rejects_complex_votes(votes):
    # ``np.isin`` finds ``1+0j`` among -1, 0, 1, and the int8 cast would
    # warn and drop the imaginary part, so a complex array is refused
    with pytest.raises(ValueError, match=r"votes must be -1, 0 \(abstain\), or \+1"):
        resolve_abstentions(votes, 0)


def test_resolving_without_abstentions_leaves_numpy_random_unimported():
    # importing numpy.random costs several MB of RSS; a stream with no
    # zeros has nothing to draw, so it must not pay for it
    code = (
        "import sys, numpy as np\n"
        "from driftvote import resolve_abstentions\n"
        "from driftvote.driftgen import _block_resolver\n"
        "out = resolve_abstentions(np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8), 0)\n"
        "assert out.tolist() == [[1, -1, 1], [-1, -1, 1]]\n"
        "resolve, block = _block_resolver(0), np.ones((2, 3), dtype=np.int8)\n"
        "assert resolve(block) is block and resolve(block) is block\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(driftvote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_chunked_coin_draws_equal_one_draw():
    # ``run`` resolves each block of a file from one carried generator, so
    # its reports are those of one whole-matrix draw only while numpy's
    # chunked draws, empty ones among them, equal one draw
    sizes = (1, 2, 7, 999, 4096, 33, 94865)
    assert sum(sizes) == 100003
    rng = np.random.default_rng(0)
    parts = []
    for size in sizes:
        parts += [rng.integers(0, 2, size=size), rng.integers(0, 2, size=0)]
    assert np.array_equal(np.concatenate(parts), np.random.default_rng(0).integers(0, 2, size=100003))


@pytest.mark.parametrize("rows", [1, 7, 1024, 5000])
def test_resolving_row_chunks_from_one_generator_equals_one_call(rows):
    votes = np.random.default_rng(3).integers(-1, 2, size=(3000, 8)).astype(np.int8)
    votes[1000:2100] = np.where(votes[1000:2100] == 0, 1, votes[1000:2100])  # chunks with no abstention
    rng = np.random.default_rng(5)
    parts = [resolve_abstentions(votes[start:start + rows], rng) for start in range(0, len(votes), rows)]
    assert np.array_equal(np.concatenate(parts), resolve_abstentions(votes, 5))
    # ``run``'s per-pass resolver: one generator from the seed, made at the
    # first chunk with an abstention, and chunks without one given back as they are
    resolve = _block_resolver(5)
    parts = [resolve(votes[start:start + rows]) for start in range(0, len(votes), rows)]
    assert np.array_equal(np.concatenate(parts), resolve_abstentions(votes, 5))


def test_permute_drift_zero_prob_is_identity():
    stream = generate_synthetic(two_block_config())
    out = apply_permute_drift(stream, 0.0, 7)
    assert np.array_equal(out.votes, stream.votes)
    assert out.votes is not stream.votes
    assert np.array_equal(out.truth, stream.truth)
    assert np.array_equal(out.block, stream.block)


def test_permute_drift_rows_are_permutations():
    stream = generate_synthetic(two_block_config())
    out = apply_permute_drift(stream, 0.05, 7)
    for t in range(len(stream)):
        assert sorted(out.votes[t].tolist()) == sorted(stream.votes[t].tolist())
    # with 200 steps at prob 0.05 some shuffle almost surely lands
    assert not np.array_equal(out.votes, stream.votes)


def test_permute_drift_is_persistent_between_events():
    """Between two shuffle events every step uses the same column map, so
    column-wise agreement with the original is constant on each segment."""
    rng_probe = np.random.default_rng(7)
    steps = 200
    events = np.flatnonzero(rng_probe.random(steps) < 0.05)
    assert len(events) >= 2  # seed chosen so the test is meaningful
    stream = generate_synthetic(two_block_config())
    out = apply_permute_drift(stream, 0.05, 7)
    bounds = [0] + list(events) + [steps]
    for start, end in zip(bounds, bounds[1:]):
        if end - start < 1:
            continue
        seg_in = stream.votes[start:end]
        seg_out = out.votes[start:end]
        # recover the segment's column map from the first row; it must
        # explain every row in the segment
        maps = [
            np.array(perm)
            for perm in _candidate_maps(seg_in, seg_out)
        ]
        assert any(np.array_equal(seg_in[:, m], seg_out) for m in maps)


def _candidate_maps(seg_in, seg_out):
    """All column maps consistent with the segment's first row."""
    n = seg_in.shape[1]
    for perm in itertools.permutations(range(n)):
        if np.array_equal(seg_in[0, list(perm)], seg_out[0]):
            yield list(perm)


def test_permute_drift_determinism_and_validation():
    stream = generate_synthetic(two_block_config())
    a = apply_permute_drift(stream, 0.1, 42)
    b = apply_permute_drift(stream, 0.1, 42)
    assert np.array_equal(a.votes, b.votes)
    with pytest.raises(ValueError):
        apply_permute_drift(stream, 1.5, 0)
    with pytest.raises(ValueError):
        apply_permute_drift(stream, -0.1, 0)


def test_true_drift_error_single_boundary():
    cfg = two_block_config()  # max jump at the boundary: |0.9-0.6| = 0.3
    assert true_drift_error(cfg, 50, 120) == pytest.approx(0.3)
    # window of 2 ending right after the edge still straddles it
    assert true_drift_error(cfg, 2, 101) == pytest.approx(0.3)
    # window of 1 never straddles anything
    assert true_drift_error(cfg, 1, 101) == 0.0
    # window entirely inside the first block
    assert true_drift_error(cfg, 50, 100) == 0.0
    # window entirely inside the second block
    assert true_drift_error(cfg, 50, 180) == 0.0
    # huge window straddles no matter what
    assert true_drift_error(cfg, 200, 150) == pytest.approx(0.3)


@pytest.mark.parametrize(
    "r, t, what", [(2.5, 15, "window size"), (3, 15.5, "step t"), (True, 15, "window size")],
    ids=["float-window", "float-step", "bool-window"],
)
def test_true_drift_error_rejects_non_integer_counts(r, t, what):
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        true_drift_error(two_block_config(), r, t)


def test_true_drift_error_accumulates_boundaries():
    cfg = SyntheticStreamConfig(
        blocks=(
            BlockSpec(10, (0.9, 0.9, 0.6)),
            BlockSpec(10, (0.6, 0.9, 0.9)),
            BlockSpec(10, (0.9, 0.6, 0.9)),
        ),
        seed=0,
        n=3,
    )
    assert true_drift_error(cfg, 30, 30) == pytest.approx(0.6)
    assert true_drift_error(cfg, 5, 22) == pytest.approx(0.3)
    assert true_drift_error(cfg, 3, 15) == 0.0


def test_true_drift_error_validation():
    cfg = two_block_config()
    with pytest.raises(ValueError):
        true_drift_error(cfg, 0, 10)
    with pytest.raises(ValueError):
        true_drift_error(cfg, 10, 0)
    with pytest.raises(ValueError):
        true_drift_error(cfg, 10, 201)


def test_block_drift_preset_layout():
    cfg = block_drift_preset(17, block_len=100)
    assert cfg.seed == 17
    assert cfg.n == 3
    assert [b.length for b in cfg.blocks] == [100, 200, 100]
    assert cfg.blocks[0].accuracies == (0.9, 0.9, 0.6)
    assert cfg.blocks[1].accuracies == (0.6, 0.9, 0.9)
    assert cfg.blocks[2].accuracies == (0.9, 0.6, 0.9)
    # BlockSpec checks the length: positive, and an integer
    with pytest.raises(ValueError, match="block length must be positive, got 0"):
        block_drift_preset(17, block_len=0)
    with pytest.raises(ValueError, match="block length must be an integer, got '5'"):
        block_drift_preset(17, block_len="5")


def test_stream_without_annotations():
    votes = np.array([[1, -1, 1]], dtype=np.int8)
    s = Stream(votes=votes)
    assert len(s) == 1
    assert s.truth is None
    assert s.block is None
