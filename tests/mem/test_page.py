"""Page-content identities."""

from repro.disk.image import BlockVersion
from repro.mem.page import AnonContent, ZERO, ZeroContent, content_repr


def test_zero_is_singleton():
    assert ZeroContent() is ZERO
    assert ZeroContent() is ZeroContent()


def test_anon_tokens_are_unique():
    a = AnonContent.fresh()
    b = AnonContent.fresh()
    assert a != b
    assert a.token != b.token


def test_anon_equality_by_token():
    assert AnonContent(5) == AnonContent(5)
    assert AnonContent(5) != AnonContent(6)


def test_block_version_equality():
    assert BlockVersion(1, 2) == BlockVersion(1, 2)
    assert BlockVersion(1, 2) != BlockVersion(1, 3)


def test_content_repr_forms():
    assert content_repr(None) == "ZERO"
    assert content_repr(ZERO) == "ZERO"
    assert content_repr(AnonContent(9)) == "anon#9"
    assert content_repr(BlockVersion(4, 2)) == "blk4v2"


def test_contents_usable_as_dict_values():
    d = {1: ZERO, 2: AnonContent.fresh(), 3: BlockVersion(0, 1)}
    assert d[1] is ZERO


def test_anon_content_matches_its_frozen_dataclass_form():
    """The slotted class keeps the eq, hash and repr of the frozen
    dataclass it replaced."""
    import dataclasses

    @dataclasses.dataclass(frozen=True)
    class Reference:
        token: int

    for token in (0, 7, 2**40):
        anon, ref = AnonContent(token), Reference(token)
        assert hash(anon) == hash(ref)
        assert repr(anon) == repr(ref).split("<locals>.")[-1].replace(
            "Reference", "AnonContent")
        assert anon == AnonContent(token) and anon != AnonContent(token + 1)
    assert AnonContent(3) != 3 and AnonContent(3) != BlockVersion(3, 0)
    assert len({AnonContent(1), AnonContent(1), AnonContent(2)}) == 2


def test_fresh_run_mints_in_order():
    first = AnonContent.fresh()
    run = AnonContent.fresh_run(3)
    last = AnonContent.fresh()
    assert [c.token for c in run] == [first.token + 1, first.token + 2,
                                      first.token + 3]
    assert last.token == first.token + 4
