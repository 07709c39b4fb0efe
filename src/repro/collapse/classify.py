"""Expression groups and the collapse legality check.

:func:`merge_verdict` is the one legality rule (Section 3): the merged
expression must fit the collapsing device — at most ``rules.max_group``
members and ``rules.max_leaves`` operands, zero-free with zero-operand
detection and raw without it.  The timing scheduler applies it to its own
plain-tuple groups.

A :class:`Group` is a (possibly single-instruction) dependence expression
for the dependence-graph analysis and the static collapse bound: the
trace positions merged so far, their signatures in program order, and
two operand counts — ``leaves`` excluding zero operands and
``raw_leaves`` including them.
"""

from .rules import CollapseRules
from .stats import CAT_0OP, CAT_3_1, CAT_4_1


class Group:
    """One dependence-expression group."""

    __slots__ = ("positions", "sigs", "leaves", "raw_leaves")

    def __init__(self, position, sig, leaves, zeros):
        self.positions = [position]
        self.sigs = [sig]
        self.leaves = leaves
        self.raw_leaves = leaves + zeros

    @property
    def size(self):
        return len(self.positions)

    def merged_counts(self, producer, uses):
        """Operand counts if ``producer`` were substituted ``uses`` times.

        Each use of the producer's result is one operand of this group's
        expression that gets replaced by the producer's whole expression.
        """
        leaves = self.leaves - uses + uses * producer.leaves
        raw = self.raw_leaves - uses + uses * producer.raw_leaves
        return leaves, raw

    def try_merge(self, producer, uses, rules):
        """Attempt to merge ``producer`` into this group.

        Returns the :func:`merge_verdict` category when the merge is
        legal and performed, or ``None`` when it is not.  The member
        count handed to the verdict is the sum of both groups' sizes,
        taken before members they share are de-duplicated.
        """
        leaves, raw = self.merged_counts(producer, uses)
        category = merge_verdict(rules, self.size + producer.size, leaves,
                                 raw)
        if category is None:
            return None
        # Perform the merge, keeping program order of members.
        merged = dict(zip(self.positions, self.sigs))
        merged.update(zip(producer.positions, producer.sigs))
        order = sorted(merged)
        self.positions = order
        self.sigs = [merged[position] for position in order]
        self.leaves = leaves
        self.raw_leaves = raw
        return category

    def __repr__(self):
        return "Group(%s, leaves=%d)" % ("-".join(self.sigs), self.leaves)


def merge_verdict(rules, size, leaves, raw):
    """Legality and category of one merge under ``rules``.

    ``size`` is the merged group's member count, counted before members
    the two groups share are de-duplicated; ``leaves`` and ``raw`` are
    its zero-free and raw operand counts.  Returns the category string
    (``3-1``/``4-1``/``0-op``) of a legal merge, or ``None``.

    The ``0-op`` category credits *enabled-by-zero-detection* merges,
    not merely merges whose expression contains zeros: a merge is 0-op
    exactly when it is legal under ``rules.zero_detection`` but would
    have been rejected without it — either ``raw`` (zeros included)
    exceeds ``rules.max_leaves`` while the zero-free ``leaves`` fits, or
    the member count needs the one-extra-instruction allowance
    (``size == max_group + 1``, again justified only by zeros).  A merge
    whose raw count already fits is credited ``3-1``/``4-1`` by its
    zero-free leaf count even when zeros are present, because the same
    collapse happens on a device without zero detection.
    """
    if size > rules.max_group:
        # Section 3: "in some cases ... four dependent instructions can
        # also be collapsed" — the case being zero-operand detection
        # shrinking the expression to a legal size.  One extra member is
        # allowed when zeros are present and the zero-free operand count
        # fits the device.
        if (rules.zero_detection and size == rules.max_group + 1
                and raw > leaves and leaves <= rules.max_leaves):
            return CAT_0OP
        return None
    if rules.zero_detection:
        if leaves > rules.max_leaves:
            return None
        if raw > rules.max_leaves:
            return CAT_0OP
    elif raw > rules.max_leaves:
        return None
    return CAT_3_1 if leaves <= 3 else CAT_4_1


def merge_category(consumer_group, producer_group, uses, rules):
    """Pure legality/category check without mutating either group."""
    leaves, raw = consumer_group.merged_counts(producer_group, uses)
    return merge_verdict(rules, consumer_group.size + producer_group.size,
                         leaves, raw)


__all__ = ["Group", "merge_category", "merge_verdict", "CollapseRules",
           "CAT_0OP", "CAT_3_1", "CAT_4_1"]
