"""One sha256 over a fixed battery of CLI outputs, to show that a change
leaves every output byte-identical.

    python3 tests/output_digest.py

Run it in the tree before a change and in the tree after it: the last
lines of the two runs match iff every output below matches.  The lines
before it hold one digest per subcommand (verify, conjecture, report,
search, expand), so a mismatch names the section it is in.  The battery
runs in one interpreter, through ucv.cli.main, and hashes each call's
argv, exit code and stdout:

- verify --format csv over ten lambdas, dims 3-5, five grid steps and
  --refine 0 and 1 (30 calls of 320 rows each);
- conjecture --format json for n = 2..8 at four lambdas (28 calls);
- report --format json on 300 seeded draws of (lambda, b1..b4) within
  the budget, about one in seven with p(-1) < 0, so rejected;
- search --format json for every registry row and AN(2..8), both
  directions, at lambda = 1/3 and 1 (92 calls); and every registry row,
  both directions, at lambda = 1, --dims 1 --step 1/70000, where one tail
  holds 70,001 values of b1, at --refine 0 and 1 (64 calls);
- expand --format json for each catalog name at lambda = 1/3 and 1, with
  and without --inverse (24 calls).

pytest does not collect this file, and it takes no options.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ucv.cli import main  # noqa: E402
from ucv.model import AN_MAX, AN_MIN, CATALOG_NAMES, FUNCTIONAL_NAMES  # noqa: E402

LAMBDAS = "1/10,1/5,1/4,1/3,1/2,3/5,2/3,3/4,9/10,1"
STEPS = ("1/10", "1/14", "1/20", "3/20", "1/25")
SEED = 20261020


def battery() -> list[list[str]]:
    calls = [["verify", "--grid", LAMBDAS, "--step", step, "--dims", str(dims), "--refine", str(refine),
              "--format", "csv"] for dims in (3, 4, 5) for step in STEPS for refine in (0, 1)]
    calls += [["conjecture", "--n", str(n), "--lambda", lam, "--format", "json"]
              for n in range(2, 9) for lam in ("1/4", "1/2", "3/4", "1")]
    rng = random.Random(SEED)
    for _ in range(300):
        lam, w = Fraction(rng.randint(1, 12), 12), [rng.randint(0, 4) for _ in range(3)]
        scale = lam * Fraction(rng.randint(0, 8), 8) / max(w[0] + 2 * w[1] + 3 * w[2], 1)  # within the budget
        tail = [x * scale for x in w]
        b = [Fraction(rng.randint(0, 14), 12) * (1 + tail[0] - tail[1] + tail[2])] + tail  # p(-1) < 0 past 12/12
        calls.append(["report", "--lambda", str(lam), "--b", ",".join(map(str, b)), "--format", "json"])
    names = FUNCTIONAL_NAMES + tuple(f"AN({n})" for n in range(AN_MIN, AN_MAX + 1))
    calls += [["search", "--functional", name, "--direction", direction, "--lambda", lam, "--format", "json"]
              for lam in ("1/3", "1") for name in names for direction in ("max", "min")]
    calls += [["search", "--functional", name, "--direction", direction, "--lambda", "1", "--dims", "1",
               "--step", "1/70000", "--refine", str(refine), "--format", "json"]
              for refine in (0, 1) for name in FUNCTIONAL_NAMES for direction in ("max", "min")]
    calls += [["expand", "--name", name, "--lambda", lam, *inverse, "--format", "json"]
              for name in CATALOG_NAMES for lam in ("1/3", "1") for inverse in ((), ("--inverse",))]
    return calls


def digests() -> tuple[dict[str, str], str]:
    """({section: sha256}, sha256 of the whole battery): a section is a
    subcommand, hashed over its own calls in battery order."""
    total, sections = hashlib.sha256(), {}
    for argv in battery():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        record = f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode()
        total.update(record)
        sections.setdefault(argv[0], hashlib.sha256()).update(record)
    return {name: h.hexdigest() for name, h in sections.items()}, total.hexdigest()


if __name__ == "__main__":
    sections, total = digests()
    for name, hexdigest in sections.items():
        print(f"{name:<10} {hexdigest}")
    print(total)
