"""Skip-gram training, nearest-neighbor retrieval and corpus loading."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import brute
import placenet.embedding
from placenet.embedding import (
    EmbeddingModel,
    load_corpus_jsonl,
    nearest_categories,
    train_skipgram,
)
from placenet.seeding import derive_rng

_spec = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
)
perfbench_inputs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = perfbench_inputs  # dataclasses look their module up here
_spec.loader.exec_module(perfbench_inputs)


def planted_corpus(seed, n_records=400, planted_share=0.3):
    """Labels A and B always co-occur; C never appears with A."""
    rng = derive_rng(seed)
    fillers = [f"F{i:02d}" for i in range(10)]
    records = []
    n_planted = int(n_records * planted_share)
    for _ in range(n_planted):
        records.append(("A", "B"))
    for _ in range(n_records - n_planted):
        k = int(rng.integers(2, 4))
        picks = rng.choice(len(fillers), size=k, replace=False)
        records.append(tuple(fillers[i] for i in picks))
    records.append(("C",))  # C exists but never co-occurs with A
    return records


def small_model():
    return train_skipgram(
        planted_corpus(1), dim=16, epochs=5, seed=2
    )


def test_self_cosine_is_one():
    model = small_model()
    for label in model.labels[:4]:
        v = model.vector(label)
        cos = float(v @ v / (np.linalg.norm(v) ** 2))
        assert cos == pytest.approx(1.0, abs=1e-12)


def test_planted_pair_beats_stranger():
    successes = 0
    for seed in range(5):
        model = train_skipgram(planted_corpus(3), dim=16, epochs=8, seed=seed)
        ranked = nearest_categories(model, "A", top_k=len(model.labels))
        cos = dict(ranked)
        if cos["B"] > cos["C"]:
            successes += 1
    assert successes >= 4


def test_min_count_filters_rare_labels():
    records = [("X", "Y")] * 3 + [("RARE", "X")]
    model = train_skipgram(records, dim=8, epochs=2, min_count=2, seed=0)
    assert "RARE" not in model
    assert "X" in model and "Y" in model


def test_empty_vocabulary_error():
    with pytest.raises(ValueError):
        train_skipgram([("solo",)], min_count=5)
    with pytest.raises(ValueError):
        train_skipgram([])


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_learning_rate_must_be_finite_and_positive(rate):
    with pytest.raises(ValueError, match="learning_rate"):
        train_skipgram([("a", "b")], epochs=1, learning_rate=rate)


@pytest.mark.parametrize("name, value", [
    ("dim", 0), ("dim", -3), ("epochs", 0), ("epochs", -2),
    ("negatives", -1), ("min_count", -1),
])
def test_bad_parameter_is_named(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        train_skipgram([("a", "b")], **{name: value})


# Two labels: every block of 3 or more pairs repeats a center, and with 5
# negatives over 2 labels nearly every pair draws its positive as a
# negative. The epochs of 14, 88 and 66 pairs end in a partial block of 3
# or 64 pairs, and 10**6 is more than an epoch. Under min_count 3 only X
# survives and no record keeps a pair.
BLOCK_CASES = {
    "two-labels": ([("X", "Y")] * 7, {}),
    "mixed": ([("A", "B")] * 9 + [("A", "C", "D")] * 6 + [("B", "D")] * 5
              + [("C", "E", "F")] * 4 + [("F",)], {}),
    "no-negatives": ([("A", "B")] * 10 + [("A", "C", "D")] * 6 + [("B", "D")] * 5,
                     {"negatives": 0}),
    "no-pairs": ([("X", "Y"), ("X", "Z"), ("X",)], {"min_count": 3}),
}


@pytest.mark.parametrize("block", [1, 3, 64, 10**6], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_updates_match_per_pair_reference(monkeypatch, case, block):
    records, overrides = BLOCK_CASES[case]
    params = {"dim": 6, "epochs": 3, "negatives": 5, "learning_rate": 0.2,
              "min_count": 1, **overrides}
    monkeypatch.setattr(placenet.embedding, "_BLOCK", block)
    model = train_skipgram(records, seed=4, **params)
    labels, vectors, losses = brute.sgns_block_reference(
        records, derive_rng(4, 0xE4B), block=block, **params
    )
    assert model.labels == labels
    scale = np.abs(vectors).max()
    assert np.abs(model.vectors - vectors).max() <= 1e-12 * scale
    assert model.epoch_losses == pytest.approx(losses, rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("workload", ["labels", "ensemble"])
def test_benchmark_planted_partners_are_nearest(tmp_path, workload, seed):
    # The benchmark's embed check fails unless the loss falls and every
    # planted A has its B as nearest neighbour; train as its embed op does.
    wl = perfbench_inputs.build(workload, seed, tmp_path)
    records = load_corpus_jsonl(str(tmp_path / "corpus.jsonl"))
    model = train_skipgram(records, epochs=wl.labels.epochs, learning_rate=0.1, seed=seed)
    assert model.epoch_losses[-1] < model.epoch_losses[0]
    for _, a, b in wl.planted:
        assert nearest_categories(model, a, top_k=1)[0][0] == b, a


def test_determinism():
    m1 = train_skipgram(planted_corpus(4), dim=12, epochs=3, seed=9)
    m2 = train_skipgram(planted_corpus(4), dim=12, epochs=3, seed=9)
    assert m1.labels == m2.labels
    assert np.array_equal(m1.vectors, m2.vectors)
    assert m1.epoch_losses == m2.epoch_losses


def test_epoch_loss_decreases():
    model = train_skipgram(planted_corpus(5), dim=16, epochs=10, seed=3)
    assert model.epoch_losses[-1] < model.epoch_losses[0]


def test_neighbors_sorted_and_seed_excluded():
    model = small_model()
    ranked = nearest_categories(model, "A", top_k=50)
    labels = [label for label, _ in ranked]
    cosines = [c for _, c in ranked]
    assert "A" not in labels
    assert cosines == sorted(cosines, reverse=True)
    assert all(-1.0 - 1e-9 <= c <= 1.0 + 1e-9 for c in cosines)


def test_neighbors_truncation():
    records = [("P", "Q"), ("Q", "R"), ("P", "R")]
    model = train_skipgram(records, dim=4, epochs=2, seed=1)
    assert len(model.labels) == 3
    assert len(nearest_categories(model, "P", top_k=10)) == 2


def test_unknown_seed_label():
    model = small_model()
    with pytest.raises(ValueError, match="^seed label 'NOT_A_LABEL' is not in the vocabulary$"):
        nearest_categories(model, "NOT_A_LABEL")


def test_record_size_validation():
    with pytest.raises(ValueError):
        train_skipgram([("a", "b", "c", "d")])


def test_corpus_jsonl_loading(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"categories": ["B", "A", "A"]}\n'
        "\n"
        '{"categories": ["C"]}\n'
    )
    records = load_corpus_jsonl(str(path))
    assert records == [("A", "B"), ("C",)]


def test_corpus_jsonl_errors(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text("not-json\n")
    with pytest.raises(ValueError, match="line 1"):
        load_corpus_jsonl(str(bad_json))

    too_many = tmp_path / "big.jsonl"
    too_many.write_text('{"categories": ["a", "b", "c", "d"]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_corpus_jsonl(str(too_many))

    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"categories": []}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_corpus_jsonl(str(empty))


def test_model_contains_and_dim():
    model = EmbeddingModel(labels=["u", "v"], vectors=np.eye(2))
    assert "u" in model and "w" not in model
    ranked = nearest_categories(model, "u", top_k=5)
    assert ranked == [("v", 0.0)]
