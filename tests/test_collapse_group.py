"""Unit tests for expression groups and collapse legality/categories."""

import pytest

from repro.collapse import (
    CAT_0OP,
    CAT_3_1,
    CAT_4_1,
    CollapseRules,
    Group,
    merge_category,
    merge_verdict,
)
from repro.errors import ConfigError
from repro.lint.sanitize import group_violation

RULES = CollapseRules.paper()


def group(position, sig="arrr", leaves=2, zeros=0):
    return Group(position, sig, leaves, zeros)


def test_pair_of_two_operand_ops_is_3_1():
    consumer = group(1)
    category = consumer.try_merge(group(0), uses=1, rules=RULES)
    assert category == CAT_3_1
    assert consumer.leaves == 3
    assert consumer.size == 2
    assert consumer.sigs == ["arrr", "arrr"]


def test_double_use_pair_is_4_1():
    """Rb = Ra + Rd; Rc = Rb + Rb -> (Ra+Rd)+(Ra+Rd): a 4-1 expression."""
    consumer = group(1)
    category = consumer.try_merge(group(0), uses=2, rules=RULES)
    assert category == CAT_4_1
    assert consumer.leaves == 4


def test_triple_chain_is_4_1():
    b = group(1)
    assert b.try_merge(group(0), uses=1, rules=RULES) == CAT_3_1
    c = group(2)
    assert c.try_merge(b, uses=1, rules=RULES) == CAT_4_1
    assert c.size == 3
    assert c.positions == [0, 1, 2]
    assert c.leaves == 4


def test_fourth_instruction_rejected_by_group_limit():
    b = group(1, leaves=1)
    b.try_merge(group(0, leaves=1), uses=1, rules=RULES)
    c = group(2, leaves=1)
    c.try_merge(b, uses=1, rules=RULES)
    d = group(3, leaves=1)
    assert d.try_merge(c, uses=1, rules=RULES) is None
    assert d.size == 1                      # unchanged on failure


def test_leaf_limit_rejected():
    """Two 3-leaf expressions merge to 5 leaves: illegal."""
    wide_consumer = group(1, leaves=3)
    wide_producer = group(0, leaves=3)
    assert wide_consumer.try_merge(wide_producer, 1, RULES) is None
    assert wide_consumer.leaves == 3


def test_zero_detection_paper_example_four_instructions():
    """Section 3's example: or/sub/srl feed ``ld [rD + 0]``.  The raw
    expression is 5-1, but the zero displacement shrinks it to 4-1 and a
    *four*-instruction collapse becomes legal, credited to 0-op."""
    srl = Group(2, "shrr", leaves=2, zeros=0)
    assert srl.try_merge(Group(0, "lgri", 2, 0), 1, RULES) == CAT_3_1
    assert srl.try_merge(Group(1, "arri", 2, 0), 1, RULES) == CAT_4_1
    assert srl.leaves == 4
    load = Group(3, "ldr0", leaves=1, zeros=1)
    category = load.try_merge(srl, 1, RULES)
    assert category == CAT_0OP
    assert load.size == 4


def test_zero_detection_credited_on_double_use_triple():
    """Producer pair with 4 clean leaves feeding ``ld [rB + 0]``: raw 5,
    clean 4 -> only legal via zero detection."""
    producer = group(1)
    producer.try_merge(group(0), uses=2, rules=RULES)    # leaves 4, raw 4
    consumer = Group(2, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(producer, 1, RULES) == CAT_0OP


def test_zero_detection_disabled_blocks_those_collapses():
    rules = CollapseRules.no_zero_detection()
    producer = group(1)
    producer.try_merge(group(0), uses=2, rules=rules)
    consumer = Group(2, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(producer, 1, rules) is None
    srl = Group(2, "shrr", leaves=2, zeros=0)
    srl.try_merge(Group(0, "lgri", 2, 0), 1, rules)
    srl.try_merge(Group(1, "arri", 2, 0), 1, rules)
    load = Group(3, "ldr0", leaves=1, zeros=1)
    assert load.try_merge(srl, 1, rules) is None


def test_leaves_exactly_at_limit_is_legal_4_1():
    """Boundary: merged leaves == max_leaves must pass, not be rejected."""
    consumer = group(1, leaves=2)
    producer = group(0, leaves=3)
    assert consumer.try_merge(producer, 1, RULES) == CAT_4_1
    assert consumer.leaves == RULES.max_leaves == 4


def test_zeros_without_need_are_not_credited_0op():
    """Boundary: raw_leaves == max_leaves with zeros present.  The merge
    would succeed on a device without zero detection, so it is credited
    by its zero-free leaf count (3-1 here), not 0-op."""
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    producer = group(0, leaves=2)
    assert consumer.try_merge(producer, 1, RULES) == CAT_3_1
    assert consumer.leaves == 2 and consumer.raw_leaves == 3
    rules = CollapseRules.no_zero_detection()
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(group(0, leaves=2), 1, rules) == CAT_3_1


def test_raw_leaves_past_limit_needs_zero_detection():
    """Boundary: raw_leaves == max_leaves + 1 is the first raw count that
    flips the credit to 0-op — and the first that fails without zero
    detection."""
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    producer = group(0, leaves=4)           # raw 5, zero-free 4
    assert consumer.try_merge(producer, 1, RULES) == CAT_0OP
    assert consumer.raw_leaves == 5 and consumer.leaves == 4
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(group(0, leaves=4), 1,
                              CollapseRules.no_zero_detection()) is None


def test_extra_member_allowance_requires_zeros():
    """size == max_group + 1 is only legal when zeros justify it: a
    zero-free four-chain stays illegal even with zero detection on."""
    b = group(1, leaves=1)
    b.try_merge(group(0, leaves=1), 1, RULES)
    c = group(2, leaves=1)
    c.try_merge(b, 1, RULES)
    d = group(3, leaves=1)                   # raw == leaves: no zeros
    assert d.try_merge(c, 1, RULES) is None
    assert d.size == 1 and d.leaves == 1


def test_branch_collapse_with_compare():
    brc = Group(1, "brc", leaves=1, zeros=0)
    category = brc.try_merge(group(0, "arri", leaves=2), 1, RULES)
    assert category == CAT_3_1
    assert brc.sigs == ["arri", "brc"]
    assert brc.leaves == 2


def test_move_immediate_collapse_small():
    consumer = group(1, "lgri", leaves=2)
    category = consumer.try_merge(Group(0, "mvi", 1, 0), 1, RULES)
    assert category == CAT_3_1
    assert consumer.leaves == 2


def test_merge_category_pure_check_does_not_mutate():
    consumer = group(1)
    producer = group(0)
    assert merge_category(consumer, producer, 1, RULES) == CAT_3_1
    assert consumer.size == 1 and consumer.leaves == 2


def test_sigs_kept_in_program_order():
    b = Group(5, "shri", 2, 0)
    b.try_merge(Group(2, "arri", 2, 0), 1, RULES)
    c = Group(9, "ldrr", 2, 0)
    c.try_merge(b, 1, RULES)
    assert c.sigs == ["arri", "shri", "ldrr"]
    assert c.positions == [2, 5, 9]


PRESETS = (CollapseRules.paper(), CollapseRules.pairs_only(),
           CollapseRules.consecutive_only(),
           CollapseRules.within_block_only(),
           CollapseRules.no_zero_detection(), CollapseRules(max_distance=2))
RULE_SETS = PRESETS + tuple(
    CollapseRules(**dict(rules.fingerprint(), zero_detection=False))
    for rules in PRESETS)


def sized(size, leaves, raw):
    """A group of ``size`` members with the given operand counts."""
    made = Group(size, "arrr", leaves, raw - leaves)
    made.positions = list(range(1, size + 1))
    made.sigs = ["arrr"] * size
    return made


@pytest.mark.parametrize("rules", RULE_SETS, ids=repr)
def test_merge_verdict_agrees_with_sanitizer_predicate(rules):
    """The one legality rule accepts exactly the merged groups the
    sanitizer's independently written device limits accept, and both
    Group paths delegate to it."""
    for size in range(2, 6):
        for leaves in range(10):
            for raw in range(10):
                verdict = merge_verdict(rules, size, leaves, raw)
                problem = group_violation(rules, size, leaves, raw)
                assert (verdict is None) == (problem is not None), \
                    (size, leaves, raw, verdict, problem)
                for uses in (1, 2):
                    consumer = sized(1, 2, 3)       # one zero operand
                    producer = sized(size - 1, leaves, raw)
                    expected = merge_verdict(
                        rules, size, *consumer.merged_counts(producer, uses))
                    assert merge_category(consumer, producer, uses,
                                          rules) == expected
                    assert consumer.try_merge(producer, uses,
                                              rules) == expected


def test_rules_validation():
    with pytest.raises(ConfigError):
        CollapseRules(max_group=1)
    with pytest.raises(ConfigError):
        CollapseRules(max_leaves=1)
    with pytest.raises(ConfigError):
        CollapseRules(max_distance=0)


def test_rules_describe_mentions_restrictions():
    text = CollapseRules.consecutive_only().describe()
    assert "consecutive-only" in text
    text = CollapseRules.within_block_only().describe()
    assert "within-block" in text
