"""The CLI outputs of tests/output_digest.py, pinned: a change that moves
any byte of them fails here, naming the subcommand whose output moved.
A change that means to move an output updates these digests and says
why."""

from __future__ import annotations

from output_digest import digests

SECTIONS = {
    "verify": "60a3e759ec687d615f7c358780d30eee843b83b734f0a1ecc47fd03aee9bafcb",
    "conjecture": "cea6ceda7ecb4f430eb7ca7222ad1fa95bb158a1ec85a8b9e93826350baf586a",
    "report": "107768a22c4183a6a7ef89c360361a1f9e65a3df59aee65ce0a6b6aa328821cf",
    "search": "d78152b5fb5b85e2d8f11857fad5828ddec9bf20f407d7f2cb88c99fac07868a",
    "expand": "122ad583b41887954eeba5dc2402f0578251d432bfbace60709f3c64e9f3a496",
}
TOTAL = "34f95c189ab31d50365634bc51c508a634a55558fabefdf94854ab6af651181a"


def test_output_digest_is_pinned():
    sections, total = digests()
    moved = [name for name in SECTIONS if sections.get(name) != SECTIONS[name]]
    assert sections.keys() == SECTIONS.keys(), f"sections {list(sections)}, expected {list(SECTIONS)}"
    assert not moved, f"output moved in section(s) {', '.join(moved)}"
    assert total == TOTAL
