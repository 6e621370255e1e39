"""Fixture: triggers exactly ``no-per-record-loop-in-phase``."""


def phase_gapped(extensions, cutoff):
    out = []
    for e in extensions:  # record loop in a phase function
        if e.score >= cutoff:
            out.append(e)
    scores = [e.score for e in sorted(extensions)]  # comprehension too
    return out, scores


def not_a_phase(extensions):
    # Outside phase_* functions record loops are fine (cold paths).
    return [e for e in extensions]


def phase_columnar_ok(extensions, order, idx):
    # Index/column loops are the columnar idiom, not record loops.
    total = 0
    for k in order:
        total += int(extensions.score[k])
    for _ in idx:
        pass
    return total


def sweep_extend_block(index, pipelines, block, cutoffs):
    # The retired Q x B un-batching: a per-query loop over hit columns.
    tagged = index.sweep_block(block, 40)
    extensions = []
    for q, pipe in enumerate(pipelines):
        mine = tagged.keys[tagged.query == q]
        extensions.append(pipe.phase_ungapped(mine, block, cutoffs[q]))
    counts = [int(tagged.per_query[q]) for q in range(len(pipelines))]
    return extensions, counts


def phase_ungapped_tagged(index, pipelines, tagged, stream, bounds):
    # Per-query work that never touches the hits is the intended shape:
    # stacking query-side tables, and splitting the *extension* stream.
    window = tagged.layout.two_hit_window
    stacked = [p.pssm for p in pipelines if p.params.two_hit_window == window]
    return stacked, [index.untag(stream, bounds, q) for q in range(len(pipelines))]
