"""Batched frontier evaluation of sparse matrix chain products.

A chain has two forms. On the sampled path it is a row of term indices into
a fixed list of handles, column 0 applied first; when the columns cycle
through several factors, that list is the concatenation of the factors'
handle lists and each column's indices point into its own factor's block
(transform.ChainSampler). chain_entry takes a plain list of handles, applied
first to last, and evaluates it as one such row.
ChainKernel computes entries of B_r ... B_1 |phi> for many (chain, row)
samples at once. It expands a frontier of (sample, row, weight) arrays one
factor at a time, top factor first: signed permutations through their masks,
other terms grouped by term through their vectorized row queries. The leaves
are the only queries of phi and are summed per sample with np.add.at. A
frontier that could grow past FRONTIER_LIMIT entries is split and finished
piece by piece, depth first, so beyond the O(t) input and output of t
samples, memory stays O(r * max(FRONTIER_LIMIT, s)) whatever t and the s^r
leaves per sample.
"""

import numpy as np

from . import instrument
from .errors import ValidationError
from .hamiltonian import PermutationHandle, _parity

# Largest frontier (in entries) that one expansion may build, unless a
# single entry has more successors than this.
FRONTIER_LIMIT = 1 << 16


class ChainKernel:
    """The frontier kernel over a fixed list of terms.

    The per-term tables are built once, here. A permutation of phase 0 has no
    entries; it counts as a general term, whose row queries return none.
    width bounds the successors of one entry. values() keeps its running
    state per call, so worker threads may share one kernel. Terms of
    different dimensions are refused.
    """

    def __init__(self, terms):
        self.terms = list(terms)
        dims = {h.dimension for h in self.terms}
        if len(dims) > 1:
            raise ValidationError(f"chain matrices disagree on dimension: {sorted(dims)}")
        perms = [h if isinstance(h, PermutationHandle) and h.perm_phase else None
                 for h in self.terms]
        self.perm = np.array([h is not None for h in perms], dtype=bool)
        self.xmask = np.array([h.perm_xmask if h else 0 for h in perms], dtype=np.int64)
        self.signmask = np.array([h.perm_signmask if h else 0 for h in perms], dtype=np.int64)
        self.phase = np.array([h.perm_phase if h else 0 for h in perms], dtype=complex)
        self.width = np.array([1 if p else h.sparsity for h, p in zip(self.terms, self.perm)],
                              dtype=np.int64)
        self.max_width = int(self.width.max(initial=1))

    def values(self, chains, rows, phi):
        """Entries (B_{x_r} ... B_{x_1} phi)(rows[i]) for every sample i.

        chains is a (t, r) index array into the terms, column 0 holding the
        factor applied to phi first; phi = None (see eigensolve) reads the
        diagonal entry at rows[i]. Stored zeros are skipped, so sample i
        costs prod(row nnz) <= s^r leaf queries of phi; the active recorder
        (instrument.recording) counts exactly those.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        call = _Call(chains, phi, rows)
        # Every weight starts at 1: a read-only broadcast, never written.
        ones = np.broadcast_to(np.complex128(1), rows.shape)
        self._finish(call, np.arange(rows.size, dtype=np.int64), rows, ones, call.r - 1)
        instrument.add(leaf_queries=call.leaves, vector_queries=call.leaves,
                       depth=call.depth)
        return call.out

    def _finish(self, call, sample, row, weight, col):
        """Expand through chain columns col .. 0, then add the leaves.

        Entry i of the frontier is row[i] of sample sample[i], with weight[i].
        """
        while col >= 0 and row.size:
            k = call.chains[:, col][sample]
            if (row.size > 1 and row.size * self.max_width > FRONTIER_LIMIT
                    and self.width[k].sum() > FRONTIER_LIMIT):
                # Halve until each piece expands to at most the limit (or is
                # a single entry), and finish the pieces one after the other.
                half = row.size // 2
                for part in (slice(0, half), slice(half, None)):
                    self._finish(call, sample[part], row[part], weight[part], col)
                return
            sample, row, weight = self._expand(sample, row, weight, k)
            if row.size:
                call.depth = max(call.depth, call.r - col)
            col -= 1
        if row.size:
            # phi None: the diagonal entry <a|B_x|a>, a = rows[sample]
            amps = row == call.rows[sample] if call.phi is None else call.phi.query_many(row)
            leaf = weight * np.asarray(amps, dtype=complex)
            call.leaves += row.size
            np.add.at(call.out, sample, leaf)

    def _expand(self, sample, row, weight, k):
        """Apply one chain column, with term index k[i] for entry i."""
        perm = self.perm[k]
        general = None
        if not perm.all():
            rest = ~perm
            general = self._expand_general(sample[rest], row[rest], weight[rest], k[rest])
            sample, row, weight, k = sample[perm], row[perm], weight[perm], k[perm]
        # Signed permutations: exactly one successor per entry.
        weight = weight * (self.phase[k] * (1.0 - 2.0 * _parity(row & self.signmask[k])))
        row = row ^ self.xmask[k]
        if general is None:
            return sample, row, weight
        return tuple(np.concatenate(pair) for pair in zip((sample, row, weight), general))

    def _expand_general(self, sample, row, weight, k):
        """Expand entries of non-permutation terms, one group per term."""
        order = np.argsort(k, kind="stable")
        parts = ([], [], [])
        for group in np.split(order, np.flatnonzero(np.diff(k[order])) + 1):
            parent, cols, vals = self.terms[k[group[0]]].rows_many(row[group])
            picked = group[parent]
            parts[0].append(sample[picked])
            parts[1].append(cols)
            parts[2].append(weight[picked] * vals)
        return tuple(np.concatenate(p) for p in parts)


class _Call:
    """Running state of one ChainKernel.values call."""

    def __init__(self, chains, phi, rows):
        self.chains = np.asarray(chains, dtype=np.int64)
        self.r, self.phi, self.rows = self.chains.shape[1], phi, rows
        self.out = np.zeros(rows.size, dtype=complex)
        self.leaves = self.depth = 0


def chain_entry(ell, chain, phi):
    """Exact <ell| B_r ... B_1 |phi>, one sample of the frontier kernel.

    chain lists the handles [B_1, ..., B_r], B_1 applied to phi first; the
    empty chain is the identity. Touches phi only at the leaves, at most
    prod(row nnz) <= s^r of them, and holds at most r + 1 frontiers of
    bounded size.
    """
    mats = list(chain)
    picks = np.arange(len(mats), dtype=np.int64)[None, :]
    return complex(ChainKernel(mats).values(picks, [ell], phi)[0])
