"""Every record of the verify matrix, pinned by one digest.

Each record of `cli.checks_for(name, "all")`, for every name of
`cli.LABELS + cli.LARGE`, is dumped as one line, the repr of (check id,
record name, lhs normal form, rhs normal form); the sha256 of the dump
is pinned below.  A change that keeps every record in name, order and
both normal forms keeps the digest.  A change that means to change
records updates DIGEST and says which records changed.

Run as a script, the module prints the dump, so that two trees can be
diffed:

    PYTHONPATH=src python tests/test_record_digest.py > records.txt
"""

import hashlib

from dawcox import cli

DIGEST = "971ee083e782e60797ef2fab928f23f4af3fb7027774dbe5881bddda66ffb7bc"


def dump_lines():
    """The dump, one repr line per record, in registry order."""
    for name in cli.LABELS + cli.LARGE:
        for check_id, run in cli.checks_for(name, "all"):
            for record, lhs, rhs in run():
                yield repr((check_id, record, cli._nf(lhs), cli._nf(rhs)))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_record_matches_the_pinned_digest():
    assert digest(dump_lines()) == DIGEST


if __name__ == "__main__":
    for line in dump_lines():
        print(line)
