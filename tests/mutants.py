"""The mutant table, and a runner that checks every mutant is killed.

A mutant is one small edit of the program that a named test must catch:
the file it edits, the exact old text (which occurs once in that file), the
new text, the tests that must fail under it, and the change that first
described it.  Run

    python tests/mutants.py

from anywhere.  For each mutant the runner copies src/, tests/ and
pyproject.toml to a fresh temporary directory, applies the mutant there,
and runs its tests with `pytest -x`.  A mutant whose tests all pass is a
survivor; the runner prints one line per mutant and exits 1 if any
survived or could not be run.  It uses the standard library only, and
never edits the checkout.

A survivor is mended by a test that kills it, never by editing the mutant
or a test until it dies.  A change that moves the code moves its mutants.
Tier-1 checks the table's form only (tests/test_mutants.py): each old text
occurs exactly once and each named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    origin: str  # the change that first described the mutant


INVARIANTS = "src/rooklab/invariants.py"
GRAPHS = "src/rooklab/graphs.py"
MODULAR = "src/rooklab/modular.py"
HESSENBERG = ("tests/test_modular.py::TestCharpolyMod"
              "::test_hessenberg_above_the_crossover",)
ENGINE_ENTRIES = ("tests/test_modular.py::TestNarrowTypes"
                  "::test_refuses_all_but_square_integer_arrays",)
SYMMETRY_ROUTE = "Route every symmetry-pruned search through one orbit routine"
BALANCED_HESSENBERG = "Run the Hessenberg charpoly on balanced residues"
NO_RESTATED_ARGUMENTS = "Delete code that no answer depends on"
DENSE_SYMMETRY = "Check the S_m split's symmetry densely"
ONE_SOURCE = "Give each fact of the engine and the small-n vectors one source"
NARROW_TYPES = "Keep SR spectra in the narrowest exact types"
BIT_ROWS = ("Give bit rows and the engine's norm, label count and screen "
            "primes one source each")
NARROW = "tests/test_modular.py::TestNarrowTypes::"
SYMMETRY_SPLIT = "tests/test_modular.py::TestSymmetrySplit::"

MUTANTS = (
    # The clique walker keeps walking a colour class after it drops an
    # orbit: answers stay right, node counts grow.
    Mutant(INVARIANTS,
           "                cls &= ~drop\n",
           "                cls &= ~low\n",
           ("tests/test_invariants.py::TestOrbitalBranching"
            "::test_node_counts_are_pinned",),
           SYMMETRY_ROUTE),
    # The best leaf is the smallest key instead of the largest.
    Mutant(INVARIANTS,
           "(vs_best == 0 and key > self.best.key)",
           "(vs_best == 0 and key < self.best.key)",
           ("tests/test_invariants.py::TestCanonicalForm::test_golden_digest",),
           "Delete the canonical search's early refinement cut"),
    # The canonical search's root is the unit partition, not the cells of
    # equal triangle count.
    Mutant(INVARIANTS,
           "        for t, cell in sorted(_triangle_cells(rows).items()):\n",
           "        for t, cell in [(0, (1 << n) - 1)][:n]:\n",
           ("tests/test_invariants.py::TestSearchWork::test_capped_closure",
            "tests/test_invariants.py::TestSearchWork::test_sr_4_9"),
           "Seed the canonical search with per-vertex triangle counts"),
    # The switch.preserve points in another order: same claims, new ids.
    Mutant("src/rooklab/verify.py",
           "    yield from _points(product((3, 4), (3, 4)),\n",
           "    yield from _points(product((4, 3), (3, 4)),\n",
           ("tests/test_verify.py::TestSuites"
            "::test_claim_ids_and_their_order_are_pinned",),
           "Declare every battery claim through one point constructor"),
    # The Hessenberg route without one of its reductions.
    Mutant(MODULAR,
           "        h[:, k + 1] = _reduce(h[:, k + 1] + h[:, k + 2:] @ f, p)\n",
           "        h[:, k + 1] = h[:, k + 1] + h[:, k + 2:] @ f\n",
           HESSENBERG, BALANCED_HESSENBERG),
    Mutant(MODULAR,
           "        h[k + 2:, k:] = _reduce(h[k + 2:, k:] - np.outer(f, h[k + 1, k:]),"
           " p)\n",
           "        h[k + 2:, k:] = h[k + 2:, k:] - np.outer(f, h[k + 1, k:])\n",
           HESSENBERG, BALANCED_HESSENBERG),
    Mutant(MODULAR,
           "        cum[:k] = _reduce(cum[:k] * h[k, k - 1], p)\n",
           "        cum[:k] = cum[:k] * h[k, k - 1]\n",
           HESSENBERG, BALANCED_HESSENBERG),
    Mutant(MODULAR,
           "        q[k + 1] = _reduce(q[k + 1], p)\n",
           "",
           HESSENBERG, BALANCED_HESSENBERG),
    # The engine's entries read float and object arrays, or any shape.
    Mutant(MODULAR,
           '    if not isinstance(a, np.ndarray) or a.dtype.kind not in "biu":\n',
           "    if not isinstance(a, np.ndarray):\n",
           ENGINE_ENTRIES, NO_RESTATED_ARGUMENTS),
    Mutant(MODULAR,
           "    if a.ndim != 2 or a.shape[0] != a.shape[1]:\n",
           "    if False:\n",
           ENGINE_ENTRIES, NO_RESTATED_ARGUMENTS),
    Mutant(MODULAR,
           "    _check_matrix(a)\n    blocks = _blocks(a, labels)\n",
           "    blocks = _blocks(a, labels)\n",
           ENGINE_ENTRIES, NO_RESTATED_ARGUMENTS),
    Mutant(MODULAR,
           "    _check_matrix(a)\n    v = int(a.shape[0])\n",
           "    v = int(a.shape[0])\n",
           ENGINE_ENTRIES, NO_RESTATED_ARGUMENTS),
    Mutant(MODULAR,
           "    _check_matrix(b)\n",
           "",
           ENGINE_ENTRIES, NO_RESTATED_ARGUMENTS),
    # Labels that do not number the matrix's order are read as others.
    Mutant(MODULAR,
           "    if labels is not None and len(labels) != v:\n",
           "    if False:\n",
           ("tests/test_modular.py::TestNarrowTypes"
            "::test_label_count_is_the_order",),
           NO_RESTATED_ARGUMENTS),
    # The S_m split checks only its first generator, the transposition.
    Mutant(MODULAR,
           " " * 30 + "(*range(1, m), 0)]]).reshape(v, 2).T:\n",
           " " * 30 + "(*range(1, m), 0)]]).reshape(v, 2).T[:1]:\n",
           (SYMMETRY_SPLIT + "test_switching_mates_get_no_symmetry",
            SYMMETRY_SPLIT + "test_symmetry_checked_entry_by_entry",
            SYMMETRY_SPLIT + "test_symmetry_compares_values"),
           DENSE_SYMMETRY),
    # The symmetry check permutes a's rows but not its columns.
    Mutant(MODULAR,
           "        if not np.array_equal(a[p][:, p], a):\n",
           "        if not np.array_equal(a[p], a):\n",
           (SYMMETRY_SPLIT + "test_batched_blocks_match_the_per_shape_oracle",
            "tests/test_acceptance.py::test_criterion_02_integral_spectra"),
           DENSE_SYMMETRY),
    # The product width's bound reads row 0 of a only.
    Mutant(MODULAR,
           "    delta = _norm(a)\n",
           "    delta = _norm(a[:1])\n",
           (SYMMETRY_SPLIT + "test_one_norm_per_block",
            "tests/test_modular.py::TestNarrowTypes"
            "::test_product_width_reads_every_row"),
           DENSE_SYMMETRY),
    # uint64 entries above 2**63 - 1 wrap when the blocks widen to int64.
    Mutant(MODULAR,
           "    if a.dtype == np.uint64 and a.size and int(a.max()) >= 2**63"
           ":\n",
           "    if False:\n",
           ENGINE_ENTRIES, ONE_SOURCE),
    # The proof's exact chunks rest on half the norm.
    Mutant(MODULAR,
           "    v, norm = len(b), _norm(b)\n",
           "    v, norm = len(b), _norm(b) // 2\n",
           ("tests/test_modular.py::TestChunkBoundary"
            "::test_refused_from_two_to_the_53",),
           ONE_SOURCE),
    # One term of the small-n table with its sign flipped.
    Mutant("src/rooklab/eigenvectors.py",
           "(2, (1, 3))",
           "(-2, (1, 3))",
           ("tests/test_eigenvectors.py::TestSmallN"
            "::test_table_matches_the_hand_built_branches",
            "tests/test_eigenvectors.py::TestSmallN::test_n4_vectors"),
           ONE_SOURCE),
    # The norm's row sums stay in uint64 past 2**64, where they wrap.
    Mutant(MODULAR,
           "    if int(mag.max()) * mag.shape[1] < 2**64:\n",
           "    if int(mag.max()) * mag.shape[1] < 2**65:\n",
           (NARROW + "test_norm_sums_rows_exactly",), NARROW_TYPES),
    # An unsplit matrix's one block keeps a's dtype instead of int64.
    Mutant(MODULAR,
           "    return [(np.asarray(a, dtype=np.int64), 1)] if v else []\n",
           "    return [(np.asarray(a), 1)] if v else []\n",
           (NARROW + "test_input_dtypes_give_the_same_pairs",), NARROW_TYPES),
    # The label length is read off the first label alone, so ragged labels
    # go through np.fromiter.
    Mutant(MODULAR,
           "    lengths = {len(t) if isinstance(t, tuple) else -1 for t in "
           "labels}\n",
           "    lengths = {len(t) if isinstance(t, tuple) else -1 for t in "
           "labels[:1]}\n",
           (NARROW + "test_ragged_labels_refused",), NARROW_TYPES),
    # Labels are keyed as one int64 up to width**m = 2**63.
    Mutant(MODULAR,
           "    if width**m < 2**62:\n",
           "    if width**m < 2**63:\n",
           (NARROW + "test_label_keys_on_both_sides_of_the_bound",),
           NARROW_TYPES),
    # A M is taken in float32 up to 2**25.
    Mutant(MODULAR,
           "    exact = np.float32 if delta * int(top.max()) < 2**24 else "
           "np.float64\n",
           "    exact = np.float32 if delta * int(top.max()) < 2**25 else "
           "np.float64\n",
           (NARROW + "test_product_width_on_both_sides_of_the_bound",),
           NARROW_TYPES),
    # The norm guard reads the largest screen prime, not the smallest.
    Mutant(MODULAR,
           "    p = min(_SCREEN_PRIMES)\n",
           "    p = max(_SCREEN_PRIMES)\n",
           ("tests/test_modular.py::TestCertificate"
            "::test_norm_guard_reads_the_screen_primes",
            "tests/test_modular.py::TestCertificate"
            "::test_block_norm_where_candidates_collide_refused"),
           BIT_ROWS),
    # Bit rows packed high bit first.
    Mutant(GRAPHS,
           '    packed = np.packbits(bits, axis=1, bitorder="little")\n',
           '    packed = np.packbits(bits, axis=1, bitorder="big")\n',
           ("tests/test_graphs.py::TestBitRows"
            "::test_bit_rows_invert_bit_matrix",), BIT_ROWS),
    # The cartesian product without its edges inside each copy of h.
    Mutant(GRAPHS,
           "_bit_rows(np.kron(a, ih) | np.kron(ig, b))",
           "_bit_rows(np.kron(a, ih))",
           ("tests/test_graphs.py::TestStandardGraphs"
            "::test_cartesian_product_matches_the_bitwise_oracle",),
           BIT_ROWS),
    # Anchors are checked for distinctness only.
    Mutant("src/rooklab/eigenvectors.py",
           "len(set(anchors) & set(range(m))) < count",
           "len(set(anchors)) < count",
           ("tests/test_eigenvectors.py::TestSmallN"
            "::test_anchors_outside_range_or_count_refused",), BIT_ROWS),
)


def apply(mutant, root):
    """Apply mutant to the copy under root; ValueError unless its old text
    occurs exactly once."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: old text occurs "
                         f"{text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant):
    """'killed', 'survived' or 'error: ...' for one mutant, in a fresh copy
    of the checkout."""
    with tempfile.TemporaryDirectory(prefix="rooklab-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache",
                                      ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        apply(mutant, work)
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode} {' '.join(tail)}"


def main():
    bad = 0
    for i, mutant in enumerate(MUTANTS):
        outcome = run(mutant)
        bad += outcome != "killed"
        first = mutant.old.strip().splitlines()[0]
        print(f"{i:2d} {outcome:8s} {mutant.file}: {first!r}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
