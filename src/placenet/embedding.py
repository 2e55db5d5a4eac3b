"""Category-label embeddings from per-page co-occurrence.

Each page contributes one record of 1-3 category labels; a record is an
unordered set, so the training window spans the whole record. Labels are
embedded with skip-gram plus negative sampling and queried by cosine
similarity for taxonomy expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from placenet.seeding import derive_rng
from placenet.tables import read_jsonl

MAX_RECORD_LABELS = 3


@dataclass
class EmbeddingModel:
    labels: list[str]
    vectors: np.ndarray  # (vocab, dim) input vectors
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        self._index = {label: i for i, label in enumerate(self.labels)}

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def vector(self, label: str) -> np.ndarray:
        return self.vectors[self._index[label]]


def load_corpus_jsonl(path: str) -> list[tuple[str, ...]]:
    """Read one record per line: {"categories": ["A", "B"]}.

    Labels are deduplicated and sorted within a record. Raises ValueError
    naming the line for malformed JSON, empty records or records with more
    than 3 labels.
    """

    def record(obj) -> tuple[str, ...]:
        labels = obj.get("categories") if isinstance(obj, dict) else None
        if not isinstance(labels, list) or not labels:
            raise ValueError("expected a non-empty 'categories' list")
        if not all(isinstance(x, str) and x for x in labels):
            raise ValueError("labels must be non-empty strings")
        uniq = tuple(sorted(set(labels)))
        if len(uniq) > MAX_RECORD_LABELS:
            raise ValueError(
                f"a record holds at most {MAX_RECORD_LABELS} labels, found {len(uniq)}"
            )
        return uniq

    return [rec for _, rec in read_jsonl(path, record)]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# Pairs per synchronous update. Every pair of a block scores against the
# weights as they stood at the block's start.
_BLOCK = 64


def _train_epoch(w_in, w_out, centers, targets, rates) -> np.ndarray:
    """Apply one epoch's updates in place, block by block.

    A block's gradients are summed over the rows it touches, duplicates
    included: the coefficient of (output row t, input row c) gathers every
    ``rate * (sigmoid(score) - label)`` of the block with that target and
    center. A block's cost therefore depends on its own rows, not on the
    vocabulary. The products run through ``np.einsum``, which never calls
    BLAS, so the bytes do not depend on the BLAS thread count. Returns each
    pair's scores at its block-start weights.
    """
    scores = np.empty(targets.shape)
    for lo in range(0, len(centers), _BLOCK):
        hi = lo + _BLOCK
        block_targets = targets[lo:hi]
        rows_in, col = np.unique(centers[lo:hi], return_inverse=True)
        rows_out, row = np.unique(block_targets.ravel(), return_inverse=True)
        vec_in = w_in[rows_in]
        vec_out = w_out[rows_out]
        s = np.einsum("bkd,bd->bk", w_out[block_targets], vec_in[col])
        scores[lo:hi] = s
        grad = _sigmoid(s)
        grad[:, 0] -= 1.0
        grad *= rates[lo:hi, None]
        coef = np.bincount(
            row * len(rows_in) + np.repeat(col, s.shape[1]),
            weights=grad.ravel(),
            minlength=len(rows_out) * len(rows_in),
        ).reshape(len(rows_out), len(rows_in))
        w_in[rows_in] = vec_in - np.einsum("tc,td->cd", coef, vec_out)
        w_out[rows_out] = vec_out - np.einsum("tc,cd->td", coef, vec_in)
    return scores


def train_skipgram(
    records,
    *,
    dim: int = 64,
    epochs: int = 15,
    negatives: int = 5,
    learning_rate: float = 0.025,
    min_count: int = 1,
    seed: int = 0,
) -> EmbeddingModel:
    """Skip-gram with negative sampling over label co-occurrence records.

    Every ordered pair of distinct labels within a record is one training
    example; negatives are drawn from the unigram^(3/4) distribution. The
    learning rate decays linearly over all pairs (floor 1e-4 of the start
    value). Updates are block-synchronous: each block of 64 consecutive
    pairs scores against the weights as they stood at the block's start,
    each pair keeps its own rate, and the block's gradients are summed into
    the rows it touches. Training is deterministic given the seed, and its
    bytes do not depend on the BLAS thread count. The model records, per
    epoch, the mean negative-sampling loss of the pairs at their
    block-start weights.

    Raises:
        ValueError: naming the parameter if dim or epochs is below 1,
            negatives or min_count is below 0, or learning_rate is not
            finite and positive; or if the corpus is empty or min_count
            filtering leaves no vocabulary.
    """
    for name, value, low in (("dim", dim, 1), ("epochs", epochs, 1),
                             ("negatives", negatives, 0), ("min_count", min_count, 0)):
        if not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    records = [tuple(sorted(set(r))) for r in records]
    if not records:
        raise ValueError("corpus is empty")
    counts: dict[str, int] = {}
    for rec in records:
        if not rec or len(rec) > MAX_RECORD_LABELS:
            raise ValueError("records must hold 1-3 labels")
        for label in rec:
            counts[label] = counts.get(label, 0) + 1
    vocab = sorted((l for l, c in counts.items() if c >= min_count),
                   key=lambda l: (-counts[l], l))
    if not vocab:
        raise ValueError("vocabulary is empty after min_count filtering")
    index = {label: i for i, label in enumerate(vocab)}
    v_size = len(vocab)

    noise = np.array([counts[l] for l in vocab], dtype=float) ** 0.75
    noise /= noise.sum()

    rng = derive_rng(seed, 0xE4B)
    w_in = (rng.random((v_size, dim)) - 0.5) / dim
    w_out = np.zeros((v_size, dim))

    # Every record's ordered pairs, record after record: record r's
    # n_pairs[r] pairs start at row first[r].
    kept = [[index[l] for l in rec if l in index] for rec in records]
    n_pairs = np.array([len(rec) * (len(rec) - 1) for rec in kept], dtype=np.intp)
    first = np.cumsum(n_pairs) - n_pairs
    all_pairs = np.array(
        [(c, o) for rec in kept for c in rec for o in rec if o != c], dtype=np.intp
    ).reshape(-1, 2)
    pairs_per_epoch = len(all_pairs)
    total_steps = max(1, pairs_per_epoch * epochs)

    epoch_losses: list[float] = []
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(kept))
        if not pairs_per_epoch:
            epoch_losses.append(0.0)
            continue
        sizes = n_pairs[order]
        shift = first[order] - (np.cumsum(sizes) - sizes)
        pairs = all_pairs[np.repeat(shift, sizes) + np.arange(pairs_per_epoch)]
        negs = rng.choice(v_size, size=(pairs_per_epoch, negatives), p=noise)
        targets = np.column_stack((pairs[:, 1], negs))
        rates = learning_rate * np.maximum(
            1e-4, 1.0 - np.arange(step, step + pairs_per_epoch) / total_steps
        )
        step += pairs_per_epoch
        scores = _train_epoch(w_in, w_out, pairs[:, 0], targets, rates)
        # -log sigma(s_pos) - sum log sigma(-s_neg), numerically stable
        loss = np.logaddexp(0.0, -scores[:, 0]).sum() + np.logaddexp(0.0, scores[:, 1:]).sum()
        epoch_losses.append(float(loss) / pairs_per_epoch)

    return EmbeddingModel(labels=vocab, vectors=w_in, epoch_losses=epoch_losses)


def nearest_categories(
    model: EmbeddingModel, seed_label: str, top_k: int = 300
) -> list[tuple[str, float]]:
    """Top-k labels by cosine similarity to the seed, seed excluded.

    Returns fewer entries when the vocabulary is smaller; similarity ties
    break lexicographically.

    Raises:
        ValueError: if the seed label is not in the vocabulary.
    """
    if seed_label not in model:
        raise ValueError(f"seed label {seed_label!r} is not in the vocabulary")
    query = model.vector(seed_label)
    norms = np.linalg.norm(model.vectors, axis=1)
    qn = np.linalg.norm(query)
    denom = norms * qn
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0, model.vectors @ query / denom, 0.0)
    ranked = sorted(
        ((label, float(c)) for label, c in zip(model.labels, cos) if label != seed_label),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[: max(0, top_k)]


def save_model_tsv(model: EmbeddingModel, path: str) -> None:
    """One line per label: label, then the vector components, tab-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, vec in zip(model.labels, model.vectors):
            fh.write(label + "\t" + "\t".join(repr(float(x)) for x in vec) + "\n")

