"""Generalized neighborhood aggregation over chunked arrays.

``apply_plus`` aggregates over a neighborhood shape translated to selected
origin cells. Origins are either every valid cell or the cells picked by
per-dimension repeating bit patterns (an origin is selected where all
patterns read '1'; pattern phase anchors at the dimension's lower bound in
global coordinates). With pattern origins the outputs are concatenated in
input order into a dense array.

Two boundary strategies are implemented and must agree:

* ``merge``: each chunk computes partial aggregate states for the origins
  whose (array-clipped) window intersects it; on the dense path, origins
  fully covered by one chunk are materialized immediately. The remaining
  partials are merged through the aggregate engine and finalized at the
  tree root.
* ``overlap``: each chunk pre-replicates the border layers it needs from
  its neighbors and computes every origin it owns locally, with no merging.

Stencil cells falling outside the array box are skipped, not errors. An
origin whose clipped window is empty yields an invalid output cell.

Dense windows of ufunc aggregates fold one dimension at a time, a box
window being separable, in O(cells x the sum of the shape's extents); the
others fold per origin.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError
from .gla import GLA, AggregationTree, CellBatch, GroupStates, \
    _round_robin, run_gla_chunks
from .model import (
    DENSE,
    SPARSE,
    ArraySchema,
    AttributeSpec,
    Box,
    DimensionSpec,
    box_intersect,
    make_dense_chunk,
    make_sparse_chunk,
)

# ---------------------------------------------------------------------------
# The stencil parameters shared by both strategies
# ---------------------------------------------------------------------------


class _StencilSpec:
    def __init__(self, array, shape, origins, aggs):
        self.array = array
        self.schema = array.schema
        self.shape = shape
        self.aggs = aggs
        self.entries = [a.entry(self.schema) for a in aggs]
        self.abox = array.box
        nd = len(self.schema.dims)
        if shape.ndim != nd:
            raise DomainError("neighborhood shape dimensionality mismatch")
        for ext, dext in zip(shape.extents, self.abox.extents):
            if ext > dext:
                raise DomainError("neighborhood shape larger than the array box")
        self.slow = not all(e.dense for e in self.entries)

        if origins == "valid":
            self.mode = "valid"
            self.dense_out = self.schema.density == DENSE
            if self.dense_out:
                # Origin grid = the whole box; activation = cell validity.
                self.sel = [np.arange(lo, hi + 1, dtype=np.int64)
                            for lo, hi in self.abox.ranges()]
            else:
                cells = array.cells()
                self.ocoords = np.array(
                    [cells.coords[d] for d in self.schema.dim_names])
                self.slow = True
        else:
            self.mode = "pattern"
            self.dense_out = True
            from .algebra import BitPattern
            if not isinstance(origins, dict):
                if len(origins) != nd:
                    raise ConfigError("one bit pattern per dimension required")
                origins = dict(zip(self.schema.dim_names, origins))
            pats = []
            for d in self.schema.dim_names:
                p = origins.get(d)
                if p is None:
                    raise ConfigError(f"missing bit pattern for dimension {d!r}")
                pats.append(p if isinstance(p, BitPattern) else BitPattern(str(p)))
            self.sel = [p.selected(lo, hi)
                        for p, (lo, hi) in zip(pats, self.abox.ranges())]
            if any(len(s) == 0 for s in self.sel):
                raise ConfigError("bit pattern selects no origins in range")
            if self.schema.density == SPARSE:
                self.slow = True
        if self.slow and self.dense_out:
            grids = np.meshgrid(*self.sel, indexing="ij")
            self.ocoords = np.array([g.ravel() for g in grids])

    # -- geometry helpers -------------------------------------------------

    def touched_range(self, d, cbox):
        """Index range into sel[d] of origins whose window can reach the
        chunk along dimension d."""
        lo, hi = self.shape.ranges[d]
        p0 = int(np.searchsorted(self.sel[d], cbox.lo[d] - hi, "left"))
        p1 = int(np.searchsorted(self.sel[d], cbox.hi[d] - lo, "right"))
        return p0, p1

    def interior_range(self, d, cbox, p0, p1):
        """Sub-range of [p0, p1) whose array-clipped window lies inside the
        chunk along dimension d."""
        lo, hi = self.shape.ranges[d]
        sel = self.sel[d]
        i0 = p0 if cbox.lo[d] == self.abox.lo[d] else \
            int(np.searchsorted(sel, cbox.lo[d] - lo, "left"))
        i1 = p1 if cbox.hi[d] == self.abox.hi[d] else \
            int(np.searchsorted(sel, cbox.hi[d] - hi, "right"))
        return max(i0, p0), min(i1, p1)

    def near(self, box, reach=True):
        """The origins (columns of ``ocoords``) whose window reaches box or,
        without ``reach``, that lie in it."""
        hit = np.ones(self.ocoords.shape[1], dtype=bool)
        for o, (lo, hi), blo, bhi in zip(self.ocoords, self.shape.ranges,
                                         box.lo, box.hi):
            if not reach:
                lo = hi = 0
            hit &= (o + hi >= blo) & (o + lo <= bhi)
        return self.ocoords[:, hit]

    def out_keys(self, origins):
        """Output cell coordinates of the origins, one row per origin."""
        if self.dense_out:
            origins = [np.searchsorted(s, o) for s, o in zip(self.sel, origins)]
        return np.array(origins, dtype=np.int64).T

    # -- output assembly --------------------------------------------------

    def out_schema(self) -> ArraySchema:
        attr_specs = [AttributeSpec(agg.out_name, agg.out_kind(self.schema))
                      for agg in self.aggs]
        if self.mode == "pattern":
            dims = tuple(DimensionSpec(d.name, 0, len(s) - 1)
                         for d, s in zip(self.schema.dims, self.sel))
            return ArraySchema(f"{self.schema.name}_regrid", dims,
                               tuple(attr_specs), DENSE)
        return ArraySchema(f"{self.schema.name}_stencil", self.schema.dims,
                           tuple(attr_specs), self.schema.density)


# ---------------------------------------------------------------------------
# The two window kernels
# ---------------------------------------------------------------------------


def _window_grid(spec: _StencilSpec, box: Box, valid, grids, sel):
    """Dense window kernel: the cell counts and the table states of every
    aggregate over the origin grid ``sel`` (one sorted coordinate vector per
    dimension), from the cells of ``box`` whose validity and value grids
    are ``valid`` and ``grids``. Origins whose window leaves the box get
    only the cells inside it.

    A box window is separable (van Herk 1992; Gil & Werman 1993): the pass
    along dimension d folds each of the shape's offsets in d into the
    origins it reaches and shrinks that axis to them. Grids sharing a ufunc
    and a state dtype, the count (int64 add over validity) among them, are
    masked once and fold as one stack, in O(cells x the sum of the shape's
    extents), not their product. Prefix sums, O(cells) for any radius, need
    exact sums to subtract (ROADMAP items 11 and 15)."""
    stacks = {(np.add, np.dtype(np.int64)): (0, [valid], [-1])}  # -1: count
    for i, e in enumerate(spec.entries):
        if e.ufunc:
            dtype = np.dtype(e.dtype if e.exact else np.float64)
            identity, members, slots = stacks.setdefault(
                (e.ufunc, dtype), (e.identity(dtype), [], []))
            members.append(grids[e.attr])
            slots.append(i)
    where = True if valid.all() else valid  # mask only where cells are invalid
    steps = []  # per dimension: (slice of sel[d], index into the box)
    for s, lo, hi, (l, h) in zip(sel, box.lo, box.hi, spec.shape.ranges):
        run = s[-1] - s[0] == len(s) - 1  # consecutive: index by a view
        q = [(int(np.searchsorted(s, lo - o, "left")),
              int(np.searchsorted(s, hi - o, "right")), o - lo)
             for o in range(l, h + 1)]
        steps.append([(slice(q0, q1), slice(s[q0] + d, s[q1 - 1] + d + 1)
                       if run else s[q0:q1] + d)
                      for q0, q1, d in q if q1 > q0])
    out = {}  # slot -> folded grid
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, by the rule
        for (ufunc, dtype), (identity, members, slots) in stacks.items():
            # Staging folds each member into the identity, as a pass below
            # would: a float sum of -0.0 is +0.0 with no pass run.
            acc = np.empty((len(members),) + valid.shape, dtype)
            for row, grid in zip(acc, members):
                if where is not True:
                    row.fill(identity)
                ufunc(grid, identity, out=row, where=where)
            for axis, (s, dim_steps) in enumerate(zip(sel, steps), start=1):
                lead = (slice(None),) * axis
                if [dst for dst, _ in dim_steps] == [slice(0, len(s))]:
                    # One offset reaching every origin: a selection.
                    acc = acc[lead + (dim_steps[0][1],)]
                    continue
                folded = np.full(acc.shape[:axis] + (len(s),)
                                 + acc.shape[axis + 1:], identity, dtype)
                for dst, src in dim_steps:
                    view = folded[lead + (dst,)]
                    ufunc(view, acc[lead + (src,)], out=view)
                acc = folded
            out.update(zip(slots, acc))
    return out.pop(-1), [out.get(i) for i in range(len(spec.entries))]


def _window_cells(spec: _StencilSpec, cells: CellBatch, origins):
    """Per-origin kernel: for each origin (a column of ``origins``), mask
    the cells in its window and fold them into that origin's table states,
    keyed by its output coordinates."""
    coords = [cells.coords[d] for d in spec.schema.dim_names]
    members = []
    for origin in origins.T:
        mask = np.ones(len(cells), dtype=bool)
        for c, o, (lo, hi) in zip(coords, origin, spec.shape.ranges):
            mask &= (c >= o + lo) & (c <= o + hi)
        members.append(np.nonzero(mask)[0])
    idx = np.concatenate(members) if members else np.empty(0, dtype=np.intp)
    groups = np.repeat(np.arange(len(members)), [len(m) for m in members])
    sub = CellBatch({d: c[idx] for d, c in cells.coords.items()},
                    {a: c[idx] for a, c in cells.columns.items()}, cells.chunk)
    return GroupStates.of_cells(spec.entries, spec.out_keys(origins), groups,
                                sub)


def _take(states, index):
    return [s if s is None else s[index] for s in states]


# ---------------------------------------------------------------------------
# Merge strategy: the stencil as a mergeable aggregate
# ---------------------------------------------------------------------------


class _ApplyPlusGLA(GLA):
    """On the dense path, a block of the windows that lie inside one chunk
    is emitted as that chunk is folded. The other windows' states, keyed by
    origin, are merged up the aggregation tree and finalized at its root."""

    def __init__(self, spec: _StencilSpec):
        self.spec = spec

    def init(self):
        return {"pending": [], "boundary": []}  # boundary: GroupStates parts

    def accumulate(self, state, cells):
        spec = self.spec
        cbox = cells.chunk.box
        if spec.slow:
            state["boundary"].append(
                _window_cells(spec, cells, spec.near(cbox)))
            return
        ranges = [spec.touched_range(d, cbox) for d in range(cbox.ndim)]
        if any(p1 <= p0 for p0, p1 in ranges):
            return
        cext = cbox.extents
        counts, states = _window_grid(
            spec, cbox, cells.chunk.validity.reshape(cext),
            {a: c.reshape(cext) for a, c in cells.chunk.columns.items()},
            [s[p0:p1] for s, (p0, p1) in zip(spec.sel, ranges)])
        # Origins whose clipped window lies inside the chunk are done; the
        # rest of the touched origins become keyed boundary states.
        interior = [spec.interior_range(d, cbox, p0, p1)
                    for d, (p0, p1) in enumerate(ranges)]
        boundary = counts > 0
        if all(i1 > i0 for i0, i1 in interior):
            local = tuple(slice(i0 - p0, i1 - p0)
                          for (i0, i1), (p0, _) in zip(interior, ranges))
            state["pending"].append((tuple(i0 for i0, _ in interior),
                                     GroupStates(spec.entries, None,
                                                 counts[local],
                                                 _take(states, local))))
            boundary[local] = False
        keys = np.argwhere(boundary) + [p0 for p0, _ in ranges]
        state["boundary"].append(GroupStates(
            spec.entries, keys, counts[boundary], _take(states, boundary)))

    def end_chunk(self, state):
        rows, state["pending"] = state["pending"], []
        return rows

    def local_merge(self, a, b):
        a["pending"].extend(b["pending"])
        a["boundary"].extend(b["boundary"])
        return a

    # end_chunk leaves nothing pending, so only the boundary travels.
    def serialize(self, state):
        return GroupStates.dumps(state["boundary"])

    def remote_merge(self, state, payload):
        state["boundary"] += GroupStates.loads(self.spec.entries, payload)
        return state

    def terminate(self, state):
        rows = list(state["pending"])
        if state["boundary"]:
            rows.append((None, GroupStates.union(state["boundary"])))
        return rows


# ---------------------------------------------------------------------------
# Overlap strategy: replicate border layers, compute chunk-locally
# ---------------------------------------------------------------------------


def _overlap_chunk(spec: _StencilSpec, chunk):
    """Rows for the origins this chunk owns (those in its box), computed
    from the chunk's box expanded by the shape: the replicated region."""
    cbox = chunk.box
    exp = _expanded_box(spec, cbox)
    if exp is None:
        return []
    if spec.slow:
        origins = spec.near(cbox, reach=False)
        if not origins.shape[1]:
            return []
        from .algebra import Array, rebox
        region = rebox(Array(spec.schema, spec.array.chunks), exp).cells()
        region.chunk = chunk
        return [(None, _window_cells(spec, region, origins))]
    from .algebra import gather_region
    ranges = [(int(np.searchsorted(s, lo, "left")),
               int(np.searchsorted(s, hi, "right")))
              for s, lo, hi in zip(spec.sel, cbox.lo, cbox.hi)]
    if any(p1 <= p0 for p0, p1 in ranges):
        return []
    grids, valid = gather_region(spec.array, exp,
                                 [a.attr for a in spec.aggs if a.attr])
    counts, states = _window_grid(
        spec, exp, valid, grids,
        [s[p0:p1] for s, (p0, p1) in zip(spec.sel, ranges)])
    return [(tuple(p0 for p0, _ in ranges),
             GroupStates(spec.entries, None, counts, states))]


def _expanded_box(spec, cbox: Box):
    """The cells of the array that the windows of the origins in ``cbox``
    reach; None when every such window leaves the array."""
    lo = tuple(c + l for c, (l, _) in zip(cbox.lo, spec.shape.ranges))
    hi = tuple(c + h for c, (_, h) in zip(cbox.hi, spec.shape.ranges))
    return box_intersect(Box(lo, hi), spec.abox)


# ---------------------------------------------------------------------------
# Assembly and the public operator
# ---------------------------------------------------------------------------


def _assemble(spec: _StencilSpec, rows):
    """The output array from rows ``(base, GroupStates)``: with base None
    the states are keyed by output coordinates; otherwise their counts and
    states are grids over a block of the origin grid starting at ``base``.
    Origins with no cells in their window have no output."""
    schema = spec.out_schema()
    names = [a.out_name for a in spec.aggs]
    # (output index, counts, one value array per aggregate)
    parts = [(groups.keys if base is None else tuple(
        slice(b, b + n) for b, n in zip(base, groups.counts.shape)),
        groups.counts, groups.values()) for base, groups in rows]
    from .algebra import Array, gather_region
    if spec.dense_out:
        extents = schema.box.extents
        valid = np.zeros(extents, dtype=bool)
        grids = [np.zeros(extents, dtype=schema.attr(n).dtype) for n in names]
        for index, counts, values in parts:
            if not isinstance(index, tuple):
                index = tuple(index.T)
            ok = counts > 0
            valid[index] |= ok
            for grid, v in zip(grids, values):
                grid[index] = np.where(ok, v, grid[index])
        if spec.mode == "valid":
            # Outputs exist only at valid origin cells.
            valid &= gather_region(spec.array, spec.abox, [])[1]
        data = {n: g.ravel() for n, g in zip(names, grids)}
        chunk = make_dense_chunk(schema, schema.box, data, valid.ravel())
        return Array(schema, [chunk])

    # Sparse output: one cell per origin with a non-empty window.
    ok = np.concatenate([c for _, c, _ in parts]) > 0 if parts else \
        np.zeros(0, dtype=bool)
    if not ok.any():
        return Array(schema, [])
    keys = np.concatenate([k for k, _, _ in parts])[ok]
    order = np.lexsort(keys.T[::-1])
    dim_cols = {d: keys[order, i] for i, d in enumerate(schema.dim_names)}
    attr_cols = {n: np.concatenate([v[i] for _, _, v in parts])[ok][order]
                 .astype(schema.attr(n).dtype) for i, n in enumerate(names)}
    chunk = make_sparse_chunk(schema, schema.box, dim_cols, attr_cols)
    return Array(schema, [chunk])


def apply_plus(array, shape, origins, agg, boundary: str = "merge",
               n_workers: int = 1):
    """Aggregate over a neighborhood shape at selected origin cells.

    ``origins`` is ``"valid"`` (every valid cell) or a mapping of dimension
    name -> bit pattern. ``agg`` is one AggregateFn or a list of them;
    ``boundary`` selects the merge or overlap strategy (identical results).
    """
    from .algebra import _normalize_aggs

    aggs = _normalize_aggs(agg)
    for a in aggs:
        a.validate(array.schema)
    spec = _StencilSpec(array, shape, origins, aggs)
    if boundary == "overlap":
        rows = []
        for chunk in array.chunks:
            rows.extend(_overlap_chunk(spec, chunk))
        return _assemble(spec, rows)
    if boundary != "merge":
        raise ConfigError(f"unknown boundary strategy {boundary!r}")
    by_worker = _round_robin(array.chunks, n_workers)
    if not by_worker:
        return _assemble(spec, [])
    tree = AggregationTree.balanced_binary(max(1, n_workers))
    run = run_gla_chunks(array.schema, by_worker, _ApplyPlusGLA(spec), tree)
    return _assemble(spec, run.materialized + run.result)
