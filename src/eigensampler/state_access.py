"""Guiding-state access and the randomized inner-product estimator.

A StateAccessor exposes amplitude queries plus Born-rule sampling; a
VectorAccessor exposes queries only. The estimator draws indices from the
state, averages the ratio w_j / psi_j, and boosts confidence by coordinate-wise
medians over independent repetitions.
"""

import contextvars
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import instrument
from .errors import StateSpecError, UndefinedRatioError, ValidationError
from .rng import spawn_streams

_NORM_TOL = 1e-8


class VectorAccessor:
    """Query access to the coordinates of a fixed complex vector.

    Subclasses answer query_many(idx), the amplitudes at an array of indices
    in idx's shape. query(j) reads one amplitude through it.
    """

    dimension = None

    def query_many(self, idx):
        raise NotImplementedError

    def query(self, j):
        """The amplitude at index j, as a complex."""
        return complex(self.query_many(np.asarray([j], dtype=np.int64))[0])


class StateAccessor(VectorAccessor):
    """Sample-and-query access to a unit vector.

    sample_many(rng, count) draws indices j with probability |psi_j|^2, where
    query_many gives the amplitudes psi_j; norm is the known Euclidean norm
    (always 1 for the states built here).
    """

    norm = 1.0

    def sample_many(self, rng, count):
        raise NotImplementedError


class DenseVector(VectorAccessor):
    def __init__(self, values):
        self._values = np.asarray(values, dtype=complex)
        if self._values.ndim != 1:
            raise StateSpecError("dense vector must be one-dimensional")
        self.dimension = self._values.shape[0]

    def query_many(self, idx):
        return self._values[np.asarray(idx, dtype=np.int64)]


class BasisState(StateAccessor):
    def __init__(self, index, dimension):
        index = int(index)
        if not 0 <= index < dimension:
            raise StateSpecError(
                f"basis index {index} outside [0, {dimension})"
            )
        self.index = index
        self.dimension = dimension

    def query_many(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return np.where(idx == self.index, 1.0 + 0.0j, 0.0j)

    def sample_many(self, rng, count):
        return np.full(count, self.index, dtype=np.int64)


class ProductState(StateAccessor):
    """Tensor product of single-qubit states, one (a, b) amplitude pair each.

    query_many reads amplitudes from tables built once per byte of the
    index: table k holds the product over qubits 8k .. 8k+7 for each value
    of that byte, so a batch costs one gather per 8 qubits.
    """

    def __init__(self, pairs):
        pairs = [(complex(a), complex(b)) for a, b in pairs]
        if not pairs:
            raise StateSpecError("product state needs at least one qubit")
        for q, (a, b) in enumerate(pairs):
            nrm = abs(a) ** 2 + abs(b) ** 2
            if abs(nrm - 1.0) > _NORM_TOL:
                raise StateSpecError(
                    f"qubit {q} amplitudes have squared norm {nrm:.12g}, not 1"
                )
        self.n = len(pairs)
        self.dimension = 2**self.n
        self._p1 = np.abs(np.array([b for _, b in pairs])) ** 2
        self._tables = [_byte_table(pairs[lo:lo + 8]) for lo in range(0, self.n, 8)]

    def query_many(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        first, *rest = self._tables
        out = first[idx & (first.size - 1)]
        for k, table in enumerate(rest, 1):
            out = out * table[(idx >> (8 * k)) & (table.size - 1)]
        return out

    def sample_many(self, rng, count):
        bits = rng.random((count, self.n)) < self._p1
        weights = (1 << np.arange(self.n, dtype=np.int64))
        return bits.astype(np.int64) @ weights


class DenseState(StateAccessor):
    """Explicit amplitude vector with O(1) sampling via a Walker alias table."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or values.shape[0] == 0:
            raise StateSpecError("dense state must be a nonempty 1-d vector")
        nrm = float(np.linalg.norm(values))
        if abs(nrm - 1.0) > _NORM_TOL:
            raise StateSpecError(
                f"dense state norm {nrm:.12g} deviates from 1 by more than {_NORM_TOL}"
            )
        self._values = values.copy()
        self._values.flags.writeable = False
        self.dimension = values.shape[0]
        probs = np.abs(values) ** 2
        self._alias_prob, self._alias_idx = _build_alias_table(probs / probs.sum())

    def query_many(self, idx):
        return self._values[np.asarray(idx, dtype=np.int64)]

    def sample_many(self, rng, count):
        slot = rng.integers(0, self.dimension, size=count)
        keep = rng.random(count) < self._alias_prob[slot]
        return np.where(keep, slot, self._alias_idx[slot])


def _byte_table(pairs):
    """Amplitude products of up to 8 qubits, indexed by their bits."""
    bits = np.arange(1 << len(pairs), dtype=np.int64)
    table = np.ones(bits.size, dtype=complex)
    for q, (a, b) in enumerate(pairs):
        table = table * np.where((bits >> q) & 1 == 1, b, a)
    return table


def _build_alias_table(probs):
    # Vose's method; probs must sum to 1.
    n = len(probs)
    scaled = probs * n
    prob = np.zeros(n)
    alias = np.zeros(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    for leftover in large + small:
        prob[leftover] = 1.0
        alias[leftover] = leftover
    return prob, alias


class MaxEntState(StateAccessor):
    """Maximally entangled pairing of two n-qubit registers.

    Index layout puts the first register in the low n bits, so the nonzero
    amplitudes sit where both halves agree: the amplitude at i + (i << n) is
    2^(-n/2).
    """

    def __init__(self, n):
        if n < 1:
            raise StateSpecError("maximally entangled state needs n >= 1")
        self.n = n
        self.half = 2**n
        self.dimension = self.half * self.half
        self._amp = self.half ** -0.5

    def query_many(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        low = idx & (self.half - 1)
        high = idx >> self.n
        return np.where(low == high, self._amp + 0.0j, 0.0j)

    def sample_many(self, rng, count):
        i = rng.integers(0, self.half, size=count)
        return i * (self.half + 1)


def is_maxent(spec):
    """Whether a guide spec asks for the unguided mode: the string "maxent"
    (in any case, surrounding blanks ignored) or a MaxEntState. Such a run
    solves on H's own qubits with psi = None; see eigensolve."""
    if isinstance(spec, str):
        return spec.strip().lower() == "maxent"
    return isinstance(spec, MaxEntState)


# ---------------------------------------------------------------------------
# Spec grammar: basis:<idx> | product:<a0,b0;a1,b1;...> | dense:<path> | maxent


def make_state(spec, n_qubits=None):
    """Build a StateAccessor from a spec string or a raw object.

    Accepts the CLI grammar (`basis:3`, `product:1,0;0.6,0.8`, `dense:path`,
    `maxent`), an integer basis index, an amplitude ndarray, or a list of
    per-qubit amplitude pairs. n_qubits fixes the dimension where the spec
    alone does not (basis, maxent) and is cross-checked elsewhere.
    """
    if isinstance(spec, StateAccessor):
        return spec
    if isinstance(spec, str):
        return _state_from_string(spec, n_qubits)
    if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
        if n_qubits is None:
            raise StateSpecError("basis state needs the qubit count")
        return BasisState(int(spec), 2**n_qubits)
    if isinstance(spec, np.ndarray):
        state = DenseState(spec)
        _check_dimension(state, n_qubits)
        return state
    if isinstance(spec, (list, tuple)):
        state = ProductState(spec)
        _check_dimension(state, n_qubits)
        return state
    raise StateSpecError(f"cannot build a state from {type(spec).__name__}")


def _check_dimension(state, n_qubits):
    if n_qubits is not None and state.dimension != 2**n_qubits:
        raise StateSpecError(
            f"state dimension {state.dimension} does not match "
            f"{n_qubits} qubits"
        )


def _state_from_string(spec, n_qubits):
    if is_maxent(spec):
        if n_qubits is None:
            raise StateSpecError("maxent needs the qubit count")
        return MaxEntState(n_qubits)
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise StateSpecError(
            f"bad state spec {spec!r}; expected basis:, product:, dense: or maxent"
        )
    if kind == "basis":
        try:
            index = int(rest)
        except ValueError:
            raise StateSpecError(f"bad basis index {rest!r}") from None
        if n_qubits is None:
            raise StateSpecError("basis state needs the qubit count")
        return BasisState(index, 2**n_qubits)
    if kind == "product":
        pairs = []
        for q, chunk in enumerate(rest.split(";")):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise StateSpecError(
                    f"qubit {q}: expected 'a,b' amplitudes, got {chunk!r}"
                )
            try:
                pairs.append((complex(parts[0]), complex(parts[1])))
            except ValueError:
                raise StateSpecError(
                    f"qubit {q}: bad complex literal in {chunk!r}"
                ) from None
        state = ProductState(pairs)
        _check_dimension(state, n_qubits)
        return state
    if kind == "dense":
        state = DenseState(read_dense_state_file(rest))
        _check_dimension(state, n_qubits)
        return state
    raise StateSpecError(f"unknown state spec kind {kind!r}")


def read_dense_state_file(path):
    """Read the binary state format: u64 N, then N little-endian f64 re,im pairs."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(8)
            if len(header) != 8:
                raise StateSpecError(f"dense state file {path!r} is truncated")
            (count,) = struct.unpack("<Q", header)
            payload = fh.read()
    except OSError as exc:
        raise StateSpecError(f"cannot read dense state file {path!r}: {exc}") from None
    # Compared before any array is built, so a huge count allocates nothing.
    if len(payload) != 16 * count:
        raise StateSpecError(
            f"dense state file {path!r} holds {len(payload)} bytes after its "
            f"header, which says {count} entries of 16 bytes"
        )
    # Each (re, im) pair of little-endian f64 is one <c16 value, bit for bit.
    return np.frombuffer(payload, dtype="<c16").astype(complex)


def write_dense_state_file(path, values):
    values = np.asarray(values, dtype=complex)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", values.shape[0]))
        interleaved = np.empty(2 * values.shape[0], dtype="<f8")
        interleaved[0::2] = values.real
        interleaved[1::2] = values.imag
        interleaved.tofile(fh)


# ---------------------------------------------------------------------------
# Ratio estimator


def sample_ratios(psi, w, count, rng):
    """Draw `count` single-sample ratios X = w_j / psi_j with j ~ |psi_j|^2.

    E[X] is the inner product <psi|w> and E[|X|^2] = ||w||^2. A sampled index
    with zero amplitude under psi but nonzero w value raises
    UndefinedRatioError; if w is also zero there the ratio contributes 0.
    """
    j = psi.sample_many(rng, count)
    amps = psi.query_many(j)
    wvals = w.query_many(j)
    instrument.add(psi_samples=count, psi_queries=count, vector_queries=count)
    amps, wvals = clear_dead_amplitudes(j, amps, wvals)
    return wvals / amps


def clear_dead_amplitudes(j, amps, vals):
    """(amps, vals) with each dead amplitude (amps == 0) set to 1 and its
    value to 0, so its ratio is 0; a dead amplitude with a nonzero value
    raises UndefinedRatioError at its sampled index j."""
    dead = amps == 0
    if np.any(dead):
        bad = dead & (vals != 0)
        if np.any(bad):
            raise UndefinedRatioError(int(j[np.argmax(bad)]))
        amps = np.where(dead, 1.0, amps)
        vals = np.where(dead, 0.0, vals)
    return amps, vals


def samples_per_batch(scale, eps, name):
    """ceil(scale / eps^2), the samples of one repetition at error eps.

    Raises ValidationError when eps^2 underflows to 0 or the quotient
    overflows to inf: such a count cannot be represented, let alone drawn.
    """
    square = eps * eps
    count = scale / square if square > 0 else math.inf
    if count == math.inf:
        raise ValidationError(
            f"{name} = {eps!r} needs ceil({scale:g} / {name}^2) samples per "
            f"batch, which overflows a float"
        )
    return math.ceil(count)


def median_reps(delta):
    """Repetitions ceil(18 ln(1/delta)) that median_amplify runs at delta.

    Raises ValidationError when 1/delta overflows to inf, as it does for a
    delta below about 5.6e-309 and for one that underflowed to 0.
    """
    inverse = 1.0 / delta if delta > 0 else math.inf
    if inverse == math.inf:
        raise ValidationError(
            f"delta = {delta!r} is too small: 1/delta overflows a float, so "
            f"ceil(18 ln(1/delta)) repetitions cannot be counted"
        )
    return max(1, math.ceil(18.0 * math.log(inverse)))


# Samples per repetition from which median_amplify runs the repetitions on
# threads. Smaller repetitions spend most of their time in Python, holding
# the interpreter lock, so threads add only start-up and contention. On two
# CPUs with one BLAS thread, serial runs won at 8,889 samples per repetition
# and fewer, and threads at 17,778 and more.
POOL_MIN_SAMPLES = 1 << 14


def _usable_cpus():
    """CPUs this process may run on; taskset -c 0 makes it 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def median_amplify(run, delta, rng, samples):
    """Boost a 3/4-confidence estimator to confidence 1 - delta.

    Runs ceil(18 ln(1/delta)) independent repetitions on spawned child streams
    and returns the coordinate-wise median of the real and imaginary parts,
    which costs a factor sqrt(2) in precision.

    samples is the number of samples one repetition draws. When it is at
    least POOL_MIN_SAMPLES and min(usable CPUs, repetitions) is at least 2,
    the repetitions run on a pool of that many threads; otherwise they run
    one after another. Each repetition draws only from its own child stream,
    so the result does not depend on which path ran it. Each pooled
    repetition runs in a copy of the caller's context, so it reports to the
    caller's recorder (instrument.recording).
    """
    if not 0 < delta <= 1:
        raise ValidationError(f"delta must be in (0, 1], got {delta}")
    reps = median_reps(delta)
    streams = spawn_streams(rng, reps)
    threads = min(_usable_cpus(), reps)
    if samples >= POOL_MIN_SAMPLES and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # A pool thread starts from an empty context: without the copy,
            # every pooled repetition would report to no recorder.
            futures = [pool.submit(contextvars.copy_context().run, run, stream)
                       for stream in streams]
            values = [future.result() for future in futures]
    else:
        values = [run(stream) for stream in streams]
    values = np.asarray(values, dtype=complex)
    return complex(np.median(values.real), np.median(values.imag))


def estimate_inner_product(psi, w, w_norm_bound, eps, delta, rng):
    """Estimate <psi|w> to within eps * ||w|| with probability >= 1 - delta.

    Each repetition averages t = ceil(8 / eps^2) sampled ratios, which lands
    within (eps/sqrt 2) * ||w|| of the truth except with probability 1/4
    (Chebyshev); the median combination across repetitions restores the full
    eps at confidence 1 - delta. w_norm_bound documents the scale the caller
    certifies for w; the guarantee is relative to the true norm, which never
    exceeds it.
    """
    if not 0 < eps <= 1:
        raise ValidationError(f"eps must be in (0, 1], got {eps}")
    if not 0 < delta <= 1:
        raise ValidationError(f"delta must be in (0, 1], got {delta}")
    if w_norm_bound < 0:
        raise ValidationError("w_norm_bound must be nonnegative")
    t = samples_per_batch(8.0, eps, "eps")

    def one_batch(stream):
        return complex(np.mean(sample_ratios(psi, w, t, stream)))

    return median_amplify(one_batch, delta, rng, t)
