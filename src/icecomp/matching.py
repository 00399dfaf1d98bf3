"""Maximum-weight matching of the co-compiler's executable-gate graphs.

`max_weight_matching` is a copy of networkx 3.6.1's function of the same
name: Edmonds' blossom algorithm in the primal-dual form of Galil
("Efficient Algorithms for Finding Maximum Matching in Graphs", ACM
Computing Surveys, 1986).  It is cut down to the case the co-compiler
needs: positive weights, maxcardinality=False and no self-loops.  Gone
are the integer path (and its optimum check, which networkx runs only for
all-int weights), the asserts and the graph object; the two trampolines
are plain recursion.  Every order networkx's result depends on is kept,
so both return the same matching for the same edges in the same order:

* vertices in order of first appearance, and each vertex's neighbours in
  edge order (networkx's adjacency dicts);
* the LIFO queue of S-vertices, and the depth-first order of `leaves`;
* vertices, then live blossoms in creation order, wherever networkx walks
  its `blossomparent` or `blossomdual` dicts: these orders break the ties
  of delta3 and delta4;
* in every delta scan, the first strictly smaller value wins.

Only the representation differs.  Vertices are renumbered 0..n-1 in
first-appearance order and each new blossom takes the next unused number,
so every per-vertex and per-blossom map is a list indexed by that number
(networkx keys dicts by vertex and by blossom object).  `blossomdual`
stays a dict of the live blossoms in creation order.  Each neighbour entry
holds the doubled edge weight, and the zero-slack edges are kept per
vertex.  Slacks and deltas keep networkx's doubled scale.  The scan loop's
two least-slack comparisons and the delta2 scan compute `slack` inline,
with the same operations in the same order; every other caller calls it.
"""

from __future__ import annotations

from typing import Iterable


def max_weight_matching(edges: Iterable[tuple[int, int, float]]
                        ) -> list[tuple[int, int]]:
    """Matched pairs of a maximum-weight matching of the graph `edges`.

    `edges` holds distinct `(a, b, weight)` triples with a != b and
    weight > 0, in the order networkx's graph would have been built.
    Each matched pair is returned once, its first-appearing vertex first.
    """
    index: dict[int, int] = {}
    for a, b, _ in edges:
        index.setdefault(a, len(index))
        index.setdefault(b, len(index))
    nodes = list(index)
    n = len(nodes)
    if not n:
        return []
    # nbrs[v][w] = 2 * weight of (v, w), neighbours in edge order
    nbrs: list[dict[int, float]] = [{} for _ in range(n)]
    maxweight = 0
    for a, b, wt in edges:
        v, w = index[a], index[b]
        nbrs[v][w] = nbrs[w][v] = 2 * wt
        if wt > maxweight:
            maxweight = wt

    # Numbers below n are vertices, from n on blossoms.  Every list below
    # but mate and dualvar grows by one entry per new blossom.
    # mate[v]: v's partner, or None while v is single
    mate: list = [None] * n
    # label of a top-level blossom (or vertex): 1 S, 2 T, None free; a
    # vertex inside a T-blossom has label 2 iff it is reachable from an
    # S-vertex outside the blossom
    label: list = [None] * n
    # labeledge[b] = (v, w): the edge through which b got its label (w in
    # b), or None if b's base is single
    labeledge: list = [None] * n
    # inblossom[v]: the top-level blossom containing vertex v
    inblossom: list = list(range(n))
    # blossomparent[b]: the parent of a sub-blossom, None at top level
    blossomparent: list = [None] * n
    # blossombase[b]: the base vertex of (sub-)blossom b
    blossombase: list = list(range(n))
    # bestedge[w]: least-slack edge from an S-vertex to free vertex w; of a
    # top-level S-blossom b, to a different S-blossom
    bestedge: list = [None] * n
    # childs[b]: sub-blossoms, from the base round the blossom; bedges[b][i]
    # = (v, w) joins v in childs[b][i] to w in childs[b][i+1] (wrapping)
    childs: list = [None] * n
    bedges: list = [None] * n
    # mybestedges[b]: a top-level S-blossom's least-slack edges to
    # neighbouring S-blossoms, or None if not computed yet
    mybestedges: list = [None] * n
    # dualvar[v] = 2 u(v); blossomdual[b] = z(b) of each live blossom
    dualvar: list = [maxweight] * n
    blossomdual: dict[int, float] = {}
    # allowed[v]: the w with (v, w) known to have zero slack
    allowed: list[set[int]] = [set() for _ in range(n)]
    # newly discovered S-vertices
    queue: list[int] = []

    def slack(v, w):
        """2 * slack of edge (v, w) (not valid inside blossoms)."""
        return dualvar[v] + dualvar[w] - nbrs[v][w]

    def leaves(b):
        """The vertices of blossom b, depth first from its last child."""
        out = []
        stack = [*childs[b]]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w, t, v):
        """Label the top-level blossom containing w with t, reached from v."""
        b = inblossom[w]
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-blossom; queue its vertices
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        else:
            # b became a T-blossom; its base's mate becomes S
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        """Trace back from v and w: the base of a new blossom, or None if
        the two paths end in different single vertices (an augmenting
        path)."""
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # the base of b is single; this path ends
                v = None
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                # b is a T-blossom; step once more
                v = labeledge[b][0]
            # alternate between both paths
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        """Make a new S-blossom with the given base through S-vertices v
        and w; its T-vertices become S and join the queue."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = len(blossombase)
        path = []
        edgs = [(v, w)]
        for entries in (label, labeledge, bestedge, blossomparent,
                        mybestedges):
            entries.append(None)
        blossombase.append(base)
        childs.append(path)
        bedges.append(edgs)
        blossomparent[bb] = b
        # trace back from v to the base
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # trace back from w to the base
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # least-slack edges from b to each neighbouring S-blossom
        bestedgeto = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [(v, w) for v in leaves(bv) for w in nbrs[v]]
            else:
                nblist = [(bv, w) for w in nbrs[bv]]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (bj != b and label[bj] == 1
                        and ((bj not in bestedgeto)
                             or slack(i, j) < slack(*bestedgeto[bj]))):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b, endstage):
        """Turn top-level blossom b's sub-blossoms into top-level ones; at
        the end of a stage, recursively expand those with zero dual."""
        for s in childs[b]:
            blossomparent[s] = None
            if s >= n:
                if endstage and blossomdual[s] == 0:
                    expand_blossom(s, endstage)
                else:
                    for v in leaves(s):
                        inblossom[v] = s
            else:
                inblossom[s] = s
        # a T-blossom expanded during a stage: relabel its sub-blossoms,
        # from the one through which it got its label round to the base
        if (not endstage) and label[b] == 2:
            ch, ed = childs[b], bedges[b]
            entrychild = inblossom[labeledge[b][1]]
            j = ch.index(entrychild)
            if j & 1:
                # odd start: go forward and wrap
                j -= len(ch)
                jstep = 1
            else:
                # even start: go backward
                jstep = -1
            v, w = labeledge[b]
            while j != 0:
                # relabel the T-sub-blossom
                if jstep == 1:
                    p, q = ed[j]
                else:
                    q, p = ed[j - 1]
                label[w] = None
                label[q] = None
                assign_label(w, 2, v)
                # step to the next S-sub-blossom and note its forward edge
                allowed[p].add(q)
                allowed[q].add(p)
                j += jstep
                if jstep == 1:
                    v, w = ed[j]
                else:
                    w, v = ed[j - 1]
                # step to the next T-sub-blossom
                allowed[v].add(w)
                allowed[w].add(v)
                j += jstep
            # relabel the base T-sub-blossom without stepping to its mate
            bw = ch[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w)
            bestedge[bw] = None
            # on round to the entry child: a sub-blossom with a vertex
            # reachable from outside becomes T
            j += jstep
            while ch[j] != entrychild:
                bv = ch[j]
                if label[bv] == 1:
                    # it just got label S through one of its neighbours
                    j += jstep
                    continue
                if bv >= n:
                    for v in leaves(bv):
                        if label[v]:
                            break
                else:
                    v = bv
                if label[v]:
                    label[v] = None
                    label[mate[blossombase[bv]]] = None
                    assign_label(v, 2, labeledge[v][0])
                j += jstep
        label[b] = labeledge[b] = bestedge[b] = None
        del blossomdual[b]

    def augment_blossom(b, v):
        """Swap matched and unmatched edges on the alternating path through
        blossom b from vertex v to the base; v becomes the base."""
        # bubble up from v to an immediate sub-blossom of b
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= n:
            augment_blossom(t, v)
        ch, ed = childs[b], bedges[b]
        i = j = ch.index(t)
        if i & 1:
            # odd start: go forward and wrap
            j -= len(ch)
            jstep = 1
        else:
            # even start: go backward
            jstep = -1
        while j != 0:
            # step to the next sub-blossom and augment it
            j += jstep
            t = ch[j]
            if jstep == 1:
                w, x = ed[j]
            else:
                x, w = ed[j - 1]
            if t >= n:
                augment_blossom(t, w)
            j += jstep
            t = ch[j]
            if t >= n:
                augment_blossom(t, x)
            # match the edge connecting those sub-blossoms
            mate[w] = x
            mate[x] = w
        # rotate the sub-blossoms to put the new base first
        childs[b] = ch[i:] + ch[:i]
        bedges[b] = ed[i:] + ed[:i]
        blossombase[b] = blossombase[childs[b][0]]

    def augment_matching(v, w):
        """Augment along the path through S-vertices v and w between two
        single vertices."""
        for s, j in ((v, w), (w, v)):
            # match s to j, then trace back to a single vertex
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    # each stage finds one augmenting path, or ends the search
    while True:
        nids = len(label)
        label[:] = labeledge[:] = bestedge[:] = [None] * nids
        for b in blossomdual:
            mybestedges[b] = None
        for av in allowed:
            av.clear()
        queue.clear()
        for v in range(n):
            if mate[v] is None and label[inblossom[v]] is None:
                assign_label(v, 1, None)

        augmented = False
        while True:
            # each substage labels what the tight edges reach, then either
            # augments or moves the duals by delta
            while queue and not augmented:
                v = queue.pop()
                av = allowed[v]
                dv = dualvar[v]
                for w, w2 in nbrs[v].items():
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        # internal to a blossom
                        continue
                    if w not in av:
                        kslack = dv + dualvar[w] - w2
                        if kslack <= 0:
                            av.add(w)
                            allowed[w].add(v)
                    if w in av:
                        lbw = label[bw]
                        if lbw is None:
                            # w is free: T, and its mate S
                            assign_label(w, 2, v)
                        elif lbw == 1:
                            # w is S: a new blossom or an augmenting path
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label[w] is None:
                            # w is inside a T-blossom, not yet reached
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        # least-slack edge to a different S-blossom
                        e = bestedge[bv]
                        if e is None or kslack < (dualvar[e[0]] + dualvar[e[1]]
                                                  - nbrs[e[0]][e[1]]):
                            bestedge[bv] = (v, w)
                    elif label[w] is None:
                        # least-slack edge reaching free (or unreached) w
                        e = bestedge[w]
                        if e is None or kslack < (dualvar[e[0]] + dualvar[e[1]]
                                                  - nbrs[e[0]][e[1]]):
                            bestedge[w] = (v, w)

            if augmented:
                break

            # delta1: the least vertex dual
            deltatype = 1
            delta = min(dualvar)
            deltaedge = deltablossom = None
            # delta2: least slack of an edge from an S-vertex to a free one
            for v in range(n):
                e = bestedge[v]
                if label[inblossom[v]] is None and e is not None:
                    d = dualvar[e[0]] + dualvar[e[1]] - nbrs[e[0]][e[1]]
                    if d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = e
            # delta3: half the least slack of an edge between S-blossoms
            for bs in (range(n), blossomdual):
                for b in bs:
                    if (blossomparent[b] is None and label[b] == 1
                            and bestedge[b] is not None):
                        d = slack(*bestedge[b]) / 2.0
                        if d < delta:
                            delta = d
                            deltatype = 3
                            deltaedge = bestedge[b]
            # delta4: the least dual of a top-level T-blossom
            for b in blossomdual:
                if (blossomparent[b] is None and label[b] == 2
                        and blossomdual[b] < delta):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            for v in range(n):
                lab = label[inblossom[v]]
                if lab == 1:
                    dualvar[v] -= delta
                elif lab == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                # optimum reached
                break
            if deltatype == 4:
                expand_blossom(deltablossom, False)
            else:
                # the least-slack edge becomes tight; continue from it
                (v, w) = deltaedge
                allowed[v].add(w)
                allowed[w].add(v)
                queue.append(v)

        if not augmented:
            break
        # end of a stage: expand the S-blossoms with zero dual
        for b in list(blossomdual):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] is None and label[b] == 1 and \
                    blossomdual[b] == 0:
                expand_blossom(b, True)

    return [(nodes[v], nodes[w]) for v, w in enumerate(mate)
            if w is not None and v < w]
