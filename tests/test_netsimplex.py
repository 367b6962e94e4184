"""The network simplex against the dict-keyed solver it replaced.

`reference_solve` is `netsimplex.solve_transportation` as it was before
its basis became node-indexed: the basic cells are the keys of a flow
dict, and every pivot walks its cycle as a list of (i, j) cells.  The
pivot rules are the same in both: block pricing picks the entering
cell, the cycle climbs to its apex, and the last blocking cell met from
the apex in the entering direction leaves (Cunningham's rule).  So both
must pivot alike and end on the same vertex with the same potentials,
down to the last bit on floats.  Only the float total may differ in its
last bits, as the node-indexed solver sums it in row-major cell order.
"""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwass.netsimplex import solve_transportation

_PIVOTS_PER_CELL = 20


def reference_solve(cost, supply, demand, tol=0):
    """Minimize sum(cost[i][j] * x[i][j]) over the transportation polytope.

    cost: m x n nested sequences; supply, demand: positive sequences with
    equal totals.  Returns (total_cost, flows, u, v): flows maps (i, j)
    to the positive flow values of one optimal vertex, and the row and
    column potentials u, v of its final basis are an optimal dual:
    cost[i][j] - u[i] - v[j] is >= -tol on every cell and 0 on the flows
    (exactly on ints, up to rounding on floats).
    """
    m, n = len(supply), len(demand)
    flows = {}  # the basic cells and their flows
    row_nbr = [set() for _ in range(m)]
    col_nbr = [set() for _ in range(n)]

    def add_cell(i, j, q):
        flows[(i, j)] = q
        row_nbr[i].add(j)
        col_nbr[j].add(i)

    def drop_cell(i, j):
        del flows[(i, j)]
        row_nbr[i].discard(j)
        col_nbr[j].discard(i)

    # northwest-corner start: a staircase of m+n-1 basic cells.  Its tie
    # rule advances the row, so a zero-flow cell (i+1, j) hangs child row
    # i+1 from parent column j and points toward the root row 0: the
    # start tree is strongly feasible (on floats, up to rounding in the
    # margin totals).
    rs = list(supply)
    rd = list(demand)
    i = j = 0
    while True:
        q = rs[i] if rs[i] < rd[j] else rd[j]
        add_cell(i, j, q)
        rs[i] -= q
        rd[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif rs[i] == 0:
            i += 1
        else:
            j += 1

    # node k < m is row k, node m + j is column j
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    u = [0] * m
    v = [0] * n

    def hang(top):
        """Parents, depths and potentials below `top`, from its own."""
        stack = [top]
        while stack:
            x = stack.pop()
            px = parent[x]
            dx = depth[x] + 1
            if x < m:
                ux = u[x]
                row_cost = cost[x]
                for jj in row_nbr[x]:
                    c = m + jj
                    if c != px:
                        parent[c] = x
                        depth[c] = dx
                        v[jj] = row_cost[jj] - ux
                        stack.append(c)
            else:
                k = x - m
                vk = v[k]
                for ii in col_nbr[k]:
                    if ii != px:
                        parent[ii] = x
                        depth[ii] = dx
                        u[ii] = cost[ii][k] - vk
                        stack.append(ii)

    def cell_above(x):
        """The tree cell joining node x to its parent."""
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    hang(0)

    cells = m * n
    block = max(1, isqrt(cells))
    pos = 0  # the next cell to price, row-major
    for _ in range(_PIVOTS_PER_CELL * cells):
        best = -tol
        entering = None
        scanned = in_block = 0
        while scanned < cells:
            ie, j0 = divmod(pos, n)
            j1 = min(n, j0 + block - in_block, j0 + cells - scanned)
            ui = u[ie]
            row_cost = cost[ie]
            basic = row_nbr[ie]
            for je in range(j0, j1):
                rc = row_cost[je] - ui - v[je]
                if rc < best and je not in basic:
                    best = rc
                    entering = (ie, je)
            step = j1 - j0
            scanned += step
            in_block += step
            pos = (pos + step) % cells
            if in_block == block:
                if entering is not None:
                    break
                in_block = 0
        if entering is None:
            break

        ie, je = entering
        # climb from both ends of the entering cell to the apex
        a, b = ie, m + je
        up_a, up_b = [], []
        while a != b:
            if depth[a] >= depth[b]:
                up_a.append(a)
                a = parent[a]
            else:
                up_b.append(b)
                b = parent[b]
        # the cycle runs from the apex down to row ie, through the
        # entering cell, then from column je up to the apex; a tree cell
        # loses flow where the cycle meets it against its row -> column
        # direction: below its column on the way down, below its row on
        # the way up
        cycle = [(cell_above(x), x < m) for x in reversed(up_a)]
        cycle += [(cell_above(x), x >= m) for x in up_b]
        theta = None
        for cell, loses in cycle:  # in cycle order: <= keeps the last blocking cell
            if loses and (theta is None or flows[cell] <= theta):
                theta = flows[cell]
                leaving = cell
        if theta:
            for cell, loses in cycle:
                flows[cell] += -theta if loses else theta
        drop_cell(*leaving)
        add_cell(ie, je, theta)

        # the cut-off subtree holds row ie when the leaving cell hangs its
        # row from its column, as on the way down; column je otherwise
        li, lj = leaving
        if parent[li] == m + lj:
            top, under = ie, m + je
            u[ie] = cost[ie][je] - v[je]
        else:
            top, under = m + je, ie
            v[je] = cost[ie][je] - u[ie]
        parent[top] = under
        depth[top] = depth[under] + 1
        hang(top)
    else:
        raise RuntimeError("network simplex failed to terminate")

    total = 0
    for (fi, fj), q in flows.items():
        total += cost[fi][fj] * q
    return total, {cell: q for cell, q in flows.items() if q > 0}, u, v



@st.composite
def degenerate_int_instances(draw):
    """Costs 0-3 and margins 1 or 2 on 2 to 8 rows and columns: ties
    everywhere, and many zero-flow basic cells."""
    m = draw(st.integers(2, 8))
    supply = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    total = sum(supply)
    n = draw(st.integers(max(2, (total + 1) // 2), min(8, total)))
    twos = total - n
    demand = draw(st.permutations([2] * twos + [1] * (n - twos)))
    cost = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    return cost, supply, demand


@st.composite
def float_instances(draw):
    """Costs (k/8)^p as floats and weights r/sum(r), as a float solve
    between 1/8-grid measures builds them, with its tolerance."""
    m, n, p = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    cost = [
        [float(draw(st.integers(0, 24)) / 8) ** p for _ in range(n)] for _ in range(m)
    ]

    def weights(size):
        parts = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
        return [r / sum(parts) for r in parts]

    tol = 1e-11 * max(1.0, max(map(max, cost)))
    return cost, weights(m), weights(n), tol


@settings(max_examples=400, deadline=None)
@given(instance=degenerate_int_instances())
def test_int_solve_pivots_as_the_reference(instance):
    """The same vertex, potentials and total as the reference: on these
    instances a solver where the first blocking cell leaves ends on
    another vertex about half the time."""
    assert solve_transportation(*instance) == reference_solve(*instance)


@settings(max_examples=300, deadline=None)
@given(instance=float_instances())
def test_float_solve_pivots_as_the_reference(instance):
    _, flows, u, v = solve_transportation(*instance)
    _, ref_flows, ref_u, ref_v = reference_solve(*instance)
    assert flows == ref_flows
    assert u == ref_u
    assert v == ref_v


@settings(max_examples=200, deadline=None)
@given(instance=float_instances())
def test_float_total_is_summed_in_row_major_order(instance):
    """The total does not depend on the pivots that led to the vertex."""
    cost = instance[0]
    total, flows, _, _ = solve_transportation(*instance)
    assert total == sum(cost[i][j] * x for (i, j), x in sorted(flows.items()))


@st.composite
def grid_int_instances(draw):
    """Costs max(|x1-y1|, |x2-y2|)^p between points of the integer grid
    [-8, 8]^2 and weights 1-12 brought to a common total, on 10 to 30
    rows and columns: pivot runs long enough to move most of the tree."""
    m, n, p = draw(st.integers(10, 30)), draw(st.integers(10, 30)), draw(st.integers(1, 3))
    point = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
    xs = draw(st.lists(point, min_size=m, max_size=m))
    ys = draw(st.lists(point, min_size=n, max_size=n))
    a = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    b = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    cost = [[max(abs(x1 - y1), abs(x2 - y2)) ** p for y1, y2 in ys] for x1, x2 in xs]
    return cost, [r * sum(b) for r in a], [r * sum(a) for r in b]


@settings(max_examples=50, deadline=None)
@given(instance=grid_int_instances())
def test_long_int_solve_pivots_as_the_reference(instance):
    assert solve_transportation(*instance) == reference_solve(*instance)


@pytest.mark.parametrize(
    "cost, supply, demand",
    [
        ([[3, 1, 2, 0]], [10], [1, 2, 3, 4]),
        ([[3], [1], [2], [0]], [1, 2, 3, 4], [10]),
        ([[5]], [2], [2]),
    ],
    ids=["one-row", "one-column", "one-cell"],
)
def test_int_solve_on_one_line(cost, supply, demand):
    """A single row or column has one feasible plan, the start: every
    cell is basic and none may enter."""
    total, flows, u, v = solve_transportation(cost, supply, demand)
    assert (total, flows, u, v) == reference_solve(cost, supply, demand)
    if len(supply) == 1:
        assert flows == {(0, j): q for j, q in enumerate(demand)}
    else:
        assert flows == {(i, 0): q for i, q in enumerate(supply)}
    assert total == sum(cost[i][j] * q for (i, j), q in flows.items())
