"""SGLD engine: seeded chains, uniform minibatching, ensembles.

One update of the dynamics is

    W_{t+1} = W_t - eta * grad_F(W_t, B_t) + sqrt(2 eta / beta) * xi_t

with xi_t a standard Gaussian vector, B_t a uniformly random size-k subset
of the dataset indices, and grad_F the minibatch mean gradient. W_0 is
drawn from the centered isotropic Gaussian with per-coordinate variance
s_sq.

Reproducibility contract: a chain is fully determined by (seed, config,
dataset). Each chain owns three RNG substreams spawned from its seed
sequence, in order: initial state, minibatch indices, Gaussian noise. The
noise stream consumes exactly d Gaussian variates per step (d * T per
chain); minibatch indices use a partial Fisher-Yates shuffle, which is
exactly uniform over size-k subsets, and consume k integer draws per step
(none when k = n). Draws are made in blocks of `STEP_CHUNK` steps; the
block structure is fixed, so identical seeds give bit-identical traces.
The Fisher-Yates swaps are then applied to blocks of (step, chain) rows of
a drawn chunk at once, sized by `BLOCK_WORDS`; each row is still shuffled
from its own offsets alone, so the swap blocking never moves a draw or an
index and the layout above does not depend on it.

Ensembles spawn one child sequence per dataset (`ensemble_seqs`); each
dataset child spawns one sequence for sampling the dataset itself (unused,
but still spawned, when `run` gives its dataset) plus one per chain. Chains
are advanced together in lockstep, vectorized across chains; a single
chain is the one-chain special case of the same code path, so a chain's
values do not depend on how many chains run beside it.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .losses import LossModel

__all__ = [
    "SGLDConfig",
    "ChainTrace",
    "check_count",
    "check_size",
    "sample_initial",
    "run_ensemble",
    "ensemble_seqs",
    "array_rows",
    "write_csv",
]

STEP_CHUNK = 512          # steps per pre-drawn RNG block
ARRAY_BYTE_CAP = 2**31    # bytes of the largest array a count may ask for,
                          # and of a run's chains' RNG objects (`config`'s
                          # table); nonconvex-wide's largest is about 26 MB
CHAIN_RNG_BYTES = 3_400   # bytes of a chain's seed sequence and its three
                          # generators: RSS grew 3.4 KB, and tracemalloc
                          # counted 3.1 KB, a chain over 10^5 chains
STATE_STORE_CAP = 10_000  # full state storage up to this many steps
BLOCK_WORDS = 2**18       # 8-byte words in the largest array of one block;
                          # twice this raised peak RSS and saved no time
CSV_BLOCK_ROWS = 256      # CSV rows converted from arrays at a time; on
                          # logistic-probe `run`'s peak RSS was 39.41 MB at
                          # 4096, 39.18 at 1024, 39.12 at 512, 39.05 at 256
                          # and 39.07-39.09 at 64-128


@dataclass(frozen=True)
class SGLDConfig:
    """Hyperparameters of one SGLD run.

    Args:
        eta: step size, > 0.
        beta: inverse temperature, > 0.
        k: minibatch size, 1 <= k <= n.
        n: dataset size.
        T: number of updates, >= 0.
        d: parameter dimension.
        s_sq: variance of the Gaussian initial state, > 0.
        seed: 64-bit root seed.
    """

    eta: float
    beta: float
    k: int
    n: int
    T: int
    d: int
    s_sq: float
    seed: int

    def __post_init__(self) -> None:
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.s_sq > 0 and math.isfinite(self.s_sq)):
            raise ValueError(f"s_sq must be positive, got {self.s_sq}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.T < 0:
            raise ValueError(f"T must be nonnegative, got {self.T}")
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        for name in ("T", "n", "k", "d"):
            check_size(name, getattr(self, name))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


# the longest axis numpy can make
_MAX_AXIS = int(np.iinfo(np.intp).max)

# least value of each sample-count parameter of the engine and its
# estimators; a standard error needs two samples
_LEAST_COUNT = {"n_chains": 1, "n_datasets": 1, "n_pairs": 1,
                "n_dataset_pairs": 1, "n_trials": 2, "n_resamples": 2}


def check_size(name: str, value: int) -> None:
    """Raise ValueError if the size `name` (T, n, k or d) gives an array axis
    numpy cannot make: the engine's arrays have T + 1, n, k and d long axes."""
    length = value + 1 if name == "T" else value
    if length > _MAX_AXIS:
        raise ValueError(f"{name} = {value} is too large: it sizes an axis of "
                         f"{length}, and numpy's longest is {_MAX_AXIS}")


def check_count(name: str, value: int) -> None:
    """Raise ValueError if the count parameter `name` is below its least value."""
    if value < _LEAST_COUNT[name]:
        raise ValueError(f"{name} must be at least {_LEAST_COUNT[name]}, got {value}")


def write_csv(path, columns, rows) -> None:
    """Write one artifact CSV: the header `columns`, then `rows`.

    Every CSV artifact is written here, in csv's own cell rule: \\r\\n line
    ends, a float as its repr (which reads back to the same float), None as
    an empty cell, and any other cell as its str.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def array_rows(*columns):
    """The rows of equal-length columns, each a 1-d array or a range, with
    Python scalars as cells: an array's are its `tolist` values, taken
    `CSV_BLOCK_ROWS` rows at a time, so no column is ever one whole list."""
    for r0 in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = slice(r0, r0 + CSV_BLOCK_ROWS)
        yield from zip(*(col[block].tolist() if isinstance(col, np.ndarray)
                         else col[block] for col in columns))


@dataclass
class ChainTrace:
    """Recorded output of one SGLD chain.

    `states` holds every state when T <= 10^4, otherwise every
    ceil(T/10^4)-th state plus the final one; `_stored_steps(T)` gives the
    step index of each stored row. `run` reads its chains chunk by chunk from
    `_lockstep_chunks` and makes chain 0's trace alone. The scalar series
    are always complete: `w_norm_sq` has T+1 entries (one per state); the
    gradient series have one entry per update, `grad_var_sample[t]` being
    the squared deviation ||grad_batch(W_t) - grad_full(W_t)||^2 of the
    minibatch gradient actually used at step t. `noise_variates` counts the
    Gaussian variates of its noise stream, T * d.
    """

    config: SGLDConfig
    states: np.ndarray
    w_norm_sq: np.ndarray
    grad_var_sample: np.ndarray
    grad_fullbatch_norm: np.ndarray
    grad_minibatch_norm: np.ndarray

    @property
    def noise_variates(self) -> int:
        return self.config.T * self.config.d

    def to_csv(self, path) -> None:
        """Columnar per-step record; update columns are empty on the final row."""
        T = self.config.T
        rows = array_rows(range(T), self.w_norm_sq[:T], self.grad_var_sample,
                          self.grad_fullbatch_norm, self.grad_minibatch_norm)
        last = (T, float(self.w_norm_sq[T]), None, None, None)
        write_csv(path, ("t", "w_norm_sq", "grad_var_sample", "grad_fullbatch_norm",
                         "grad_minibatch_norm"), itertools.chain(rows, [last]))


# ------------------------------------------------------------ primitive ops


def sample_initial(d: int, s_sq: float, rng: np.random.Generator) -> np.ndarray:
    """Draw W_0 from the centered Gaussian with per-coordinate variance s_sq."""
    if not s_sq > 0:
        raise ValueError(f"s_sq must be positive, got {s_sq}")
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return math.sqrt(s_sq) * rng.standard_normal(d)


# ------------------------------------------------------------------- engine


def _block_len(words_per_unit: int) -> int:
    """Units (steps, states) per block so one block's largest array holds
    at most `BLOCK_WORDS` words; a (rows, n) Fisher-Yates scratch costs
    rows * n. At least one unit, which is what an unblocked loop costs.
    """
    return max(1, BLOCK_WORDS // words_per_unit)


def _index_dtype(n: int):
    """The narrowest unsigned integer type that holds every index below n:
    uint8 up to n = 256, uint16 up to 65,536, and so on."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


def _draw_offsets(rng: np.random.Generator, high: np.ndarray, rows: int) -> np.ndarray:
    """`rng.integers(0, high, size=(rows, len(high)))`: the same values, and
    the same generator state after, in a fraction of the time.

    For 2 <= high <= 2**32, numpy maps each raw 32-bit draw x to
    (x * high) >> 32 (Lemire's method), rejecting x when (x * high) mod
    2**32 < (2**32 - high) mod high; PCG64 gives the raw draws as the low
    then the high half of each 64-bit output, and a half one call leaves
    over opens the next. Here the block's raw draws come from one
    `random_raw` call and are mapped as arrays, not one by one. A block
    with a rejection rewinds the generator and draws with `rng.integers`,
    as do other generators and ranges; at n = 200, k = 20 about one block
    of 24,000 draws in 2,200 has one.
    """
    bitgen = rng.bit_generator
    if not (type(bitgen) is np.random.PCG64 and rows > 0
            and 2 <= high.min() and high.max() <= 2**32):
        return rng.integers(0, high, size=(rows, high.shape[0]))
    saved = bitgen.state
    count = rows * high.shape[0]
    held = saved["has_uint32"]
    words = bitgen.random_raw((count - held + 1) // 2)
    x = np.empty((words.shape[0] + held, 2), dtype=np.uint64)
    np.bitwise_and(words, 0xFFFFFFFF, out=x[held:, 0])
    np.right_shift(words, 32, out=x[held:, 1])
    if held:
        x[0, 1] = saved["uinteger"]
    s = high.astype(np.uint64)
    m = x.reshape(-1)[held:held + count].reshape(rows, -1)
    m *= s
    if np.any(m.astype(np.uint32) < (2**32 - s) % s):  # the low 32 bits
        bitgen.state = saved
        return rng.integers(0, high, size=(rows, high.shape[0]))
    state = bitgen.state
    state["has_uint32"] = (count - held) % 2
    if words.shape[0]:
        state["uinteger"] = int(words[-1] >> 32)
    bitgen.state = state
    m >>= 32
    return m.view(np.int64)


def _fy_subset_rows(offsets: np.ndarray, n: int) -> np.ndarray:
    """Apply partial Fisher-Yates swaps rowwise; offsets is (rows, k).

    Row r's swap j exchanges its positions j and j + offsets[r, j]. The
    (n, rows) scratch is position-major, so swap j of every row reads and
    writes one contiguous scratch row plus one gathered element per row.
    It holds the narrowest indices that fit (`_index_dtype`), one byte each
    up to n = 256, which cuts the memory each swap moves; the indices are
    the same either way. Returns a C-ordered (rows, k) copy, the layout the
    gradient kernels' bits assume.
    """
    rows, k = offsets.shape
    scratch = np.repeat(np.arange(n, dtype=_index_dtype(n)), rows).reshape(n, rows)
    flat = scratch.reshape(-1)
    # flat scratch position of each swap target, one row per swap
    targets = np.array(offsets.T, dtype=np.int64, order="C")  # a copy, always
    targets += np.arange(k)[:, None]
    targets *= rows
    targets += np.arange(rows)
    for j in range(k):
        target = targets[j]
        tmp = scratch[j].copy()
        scratch[j] = flat[target]
        flat[target] = tmp
    return np.ascontiguousarray(scratch[:k].T)


def _row_sq(A: np.ndarray) -> np.ndarray:
    """Squared norm of each length-d row of A, (..., d) -> (...), as one
    einsum("ij,ij->i"): every row is the same reduction however many rows
    are taken at once, so a chunk's rows have the bits of single steps'."""
    rows = A.reshape(-1, A.shape[-1])
    return np.einsum("ij,ij->i", rows, rows).reshape(A.shape[:-1])


def _stride(T: int) -> int:
    """The step stride of a stored trajectory: every state up to
    `STATE_STORE_CAP` steps, else every ceil(T / STATE_STORE_CAP)-th one."""
    return 1 if T <= STATE_STORE_CAP else -(-T // STATE_STORE_CAP)


def _stored_steps(T: int) -> np.ndarray:
    """The steps a trajectory of horizon T stores: the multiples of
    `_stride(T)`, and T itself."""
    steps = np.arange(0, T + 1, _stride(T))
    return steps if steps[-1] == T else np.append(steps, T)


@dataclass(frozen=True)
class _Chunk:
    """One block of `_lockstep_chunks`, every chain's, step-major. Its
    arrays may be views of buffers the next block overwrites.

    `steps` (m, c, d) holds W_t for t = t0 .. t0 + m - 1, `w_norm_sq` (m, c)
    their ||W_t||^2, and `states` (r, c, d) those a trajectory stores: the
    multiples of the stride, and the final state T. `indices` (m, c, k)
    holds, when k < n, row s chain i's minibatch of its own dataset in the
    update into W_{t0 + s}; it is None when k = n and for the first block,
    the initial state alone (t0 = 0, m = 1).
    """

    t0: int
    steps: np.ndarray
    w_norm_sq: np.ndarray
    states: np.ndarray
    indices: np.ndarray | None


def _lockstep_chunks(config: SGLDConfig, model: LossModel, datasets: np.ndarray,
                     chain_seqs: list[np.random.SeedSequence]):
    """Advance several chains together, vectorized across chains, yielding
    a `_Chunk` for the initial states and then one per `STEP_CHUNK` steps.

    `datasets` is (c, n, z_dim), row i being chain i's dataset (a broadcast
    view when chains share one, which is gathered from and never copied
    c times). Per-chain RNG draws are issued chain by chain, so each
    chain's stream is independent of how chains are grouped. A chunk's
    minibatch indices are built before its step loop, a block of steps at a
    time over the offsets they are drawn from; `_block_len` sizes the block
    from its (steps * c, n) Fisher-Yates scratch.

    The step loop computes only the gradients and the update: each step's
    states go into a (chunk, c, d) buffer, which the chunk carries with its
    minibatch indices, and a chunk's ||W||^2 and stored states are taken
    once from it, by the same per-row reduction a step would take
    (`_row_sq`). So a caller holds one chunk of states at a time, whatever
    T is.
    """
    c = len(chain_seqs)
    T, d, n, k = config.T, config.d, config.n, config.k
    eta, beta = config.eta, config.beta
    noise_scale = math.sqrt(2.0 * eta / beta)
    stride = _stride(T)

    rng_init, rng_batch, rng_noise = [], [], []
    for seq in chain_seqs:
        init_s, batch_s, noise_s = seq.spawn(3)
        rng_init.append(np.random.default_rng(init_s))
        rng_batch.append(np.random.default_rng(batch_s))
        rng_noise.append(np.random.default_rng(noise_s))

    W = np.stack([sample_initial(d, config.s_sq, r) for r in rng_init])
    yield _Chunk(0, W[None], _row_sq(W)[None], W[None], None)

    # one contiguous table of data points to gather minibatches from: the
    # shared dataset, or the stacked datasets with chain i's at row i * n
    if c == 1 or datasets.strides[0] == 0:
        table, first_row = np.ascontiguousarray(datasets[0]), 0
    else:
        table = np.ascontiguousarray(datasets).reshape(c * n, -1)
        first_row = n * np.arange(c)[:, None]
    high = (n - np.arange(k)).astype(np.int64)
    block = _block_len(c * n)  # steps per Fisher-Yates block

    # per-chunk buffers, step-major; a shorter last chunk uses their heads.
    # Ws[s] holds step s's scaled noise until the update adds it in place
    # (a + b is b + a in floating point), so the states take no extra buffer
    chunk = min(STEP_CHUNK, T)
    Ws = np.empty((chunk, c, d))
    if k < n:
        # offs[s, i] holds chain i's offsets at step s, then its indices
        offs = np.empty((chunk, c, k), dtype=_index_dtype(n))
    else:
        full = model.full_batch_grad(datasets)
    for start in range(0, T, STEP_CHUNK):
        cl = min(STEP_CHUNK, T - start)
        W = W.copy()  # off the buffer the draws below overwrite
        for i in range(c):
            if k < n:
                offs[:cl, i] = _draw_offsets(rng_batch[i], high, cl)
            Ws[:cl, i] = rng_noise[i].standard_normal((cl, d))
        Ws[:cl] *= noise_scale
        if k < n:
            for s in range(0, cl, block):
                b = min(block, cl - s)
                offs[s:s + b] = _fy_subset_rows(offs[s:s + b].reshape(b * c, k),
                                                n).reshape(b, c, k)

        for s in range(cl):
            if k < n:
                G = model.grad_minibatch(W, np.take(table, offs[s] + first_row, axis=0))
            else:
                G = full(W)
            W = np.add(W - eta * G, Ws[s], out=Ws[s])

        # the chunk's multiples of the stride, and T when off the stride
        kept = Ws[-(-(start + 1) // stride) * stride - start - 1:cl:stride]
        if start + cl == T and T % stride:
            kept = np.concatenate([kept, Ws[cl - 1:cl]])
        yield _Chunk(start + 1, Ws[:cl], _row_sq(Ws[:cl]), kept,
                     offs[:cl] if k < n else None)


def ensemble_seqs(seed: int, n_chains: int, n_datasets: int = 1):
    """The seed sequences of an ensemble, one (dataset sequence, chain
    sequences) pair per dataset: SeedSequence(seed) spawns one child per
    dataset, and each dataset child spawns 1 + n_chains sequences, the first
    for the dataset sample and the rest one per chain."""
    check_count("n_chains", n_chains)
    check_count("n_datasets", n_datasets)
    return [(children[0], children[1:])
            for children in (ds_seq.spawn(1 + n_chains) for ds_seq
                             in np.random.SeedSequence(seed).spawn(n_datasets))]


def run_ensemble(
    config: SGLDConfig,
    model: LossModel,
    n_chains: int = 1,
    n_datasets: int = 1,
) -> np.ndarray:
    """The final states W_T, (c, d), of independent chains, `n_chains` on
    each of `n_datasets` freshly sampled datasets, on `ensemble_seqs`'
    streams, grouped dataset-major. One pass of `_lockstep_chunks`, so only
    one chunk of states is held at a time."""
    seqs = ensemble_seqs(config.seed, n_chains, n_datasets)
    chain_seqs = [seq for _, chains in seqs for seq in chains]
    drawn = [model.sample_data(np.random.default_rng(ds_seq), config.n)
             for ds_seq, _ in seqs]
    if len(drawn) > 1:
        datasets = np.repeat(np.stack(drawn), n_chains, axis=0)
    else:  # shared by every chain, and never copied per chain
        datasets = np.broadcast_to(drawn[0], (len(chain_seqs),) + drawn[0].shape)
    for chunk in _lockstep_chunks(config, model, datasets, chain_seqs):
        pass
    return chunk.states[-1].copy()  # T is the last stored step
