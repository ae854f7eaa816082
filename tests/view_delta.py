"""What one ``LocalView.integrate`` call added, in comparable form.

``LocalView.integrate`` returns ``(inconsistent, added)``; the claims it
settled and the vertices it learned go into the view's pending delta masks
(``delta_records`` and ``delta_vertices``, with the claims' node bits and
vertex masks carried in ``delta_nodes`` and ``delta_span``).  The set-based reference
returns ``(inconsistent, new_edge_sets, new_vertices)``.  Both are brought
to ``(inconsistent, added, sorted claim entries, sorted vertex ids)`` here,
so a test compares every quantity the old triple carried.
"""


def integrate_tracked(view, *args, **kwargs):
    """``view.integrate(*args, **kwargs)`` as ``(inconsistent, added, claims,
    vertices)``, with the claims and vertices read off what the call put
    into the pending delta.

    The pending delta (all four masks) is cleared for the call and ORed
    back afterwards (also when the call raises), so the view ends exactly
    as after a plain ``integrate``; a claim that was still pending from an
    earlier call and settles again (after a retraction) is listed too.
    """
    saved = pending_masks(view)
    view.delta_records = view.delta_vertices = view.delta_nodes = view.delta_span = 0
    try:
        inconsistent, added = view.integrate(*args, **kwargs)
        new_records, new_vertices = view.delta_records, view.delta_vertices
    finally:
        records, vertices, nodes, span = saved
        view.delta_records |= records
        view.delta_vertices |= vertices
        view.delta_nodes |= nodes
        view.delta_span |= span
    interner = view._interner
    claims = sorted(interner.records[rid].entry for rid in interner.bits(new_records))
    ids = sorted(interner.ids[slot] for slot in interner.bits(new_vertices))
    return inconsistent, added, claims, ids


def pending_masks(view):
    """``(delta_records, delta_vertices, delta_nodes, delta_span)`` of ``view``."""
    return view.delta_records, view.delta_vertices, view.delta_nodes, view.delta_span


def recomputed_claim_masks(view):
    """The OR of the node bits and of the vertex masks of the claims in
    ``view.delta_records``, recomputed record by record."""
    interner = view._interner
    nodes = span = 0
    for rid in interner.bits(view.delta_records):
        record = interner.records[rid]
        nodes |= record.bit
        span |= record.vmask
    return nodes, span


def assert_carried_masks(view):
    """The carried ``delta_nodes`` and ``delta_span`` match a recomputation."""
    assert (view.delta_nodes, view.delta_span) == recomputed_claim_masks(view)


def reference_result(result):
    """A ``SetBasedLocalView.integrate`` triple in ``integrate_tracked`` form."""
    inconsistent, new_edge_sets, new_vertices = result
    return inconsistent, len(new_vertices), sorted(new_edge_sets), sorted(new_vertices)
