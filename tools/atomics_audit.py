#!/usr/bin/env python3
"""Atomic-site audit lint for the wcq tree (DESIGN.md §11).

Extracts every atomic operation site in src/ — std::atomic member calls
(load/store/RMW/CAS), fences, __atomic_* builtins and the lock-prefixed
CAS2 inline asm — together with its memory_order, and diffs the result
against the committed manifest tools/atomics_manifest.tsv, where every site
carries a justification tag referencing a DESIGN.md §11 argument id.

The check fails on:
  * a site in the tree that is missing from the manifest      (unlisted)
  * a manifest row whose site no longer exists                (stale)
  * a site whose tag is empty/UNTAGGED                        (unjustified)
  * a tag that names no DESIGN.md §11/§15 argument id         (dangling)
  * more seq_cst sites than the manifest's ratcheted budget   (ratchet)
  * a downgraded site re-strengthened back to seq_cst without
    the manifest being re-argued                              (re-strengthened)
  * a downgraded row whose tag is not a §15 downgrade id      (untracked-downgrade)

Site identity is content-based — sha1(file|receiver|op|orders) plus an
occurrence ordinal — so pure line drift (code added above a site) does not
invalidate the manifest; changing the operation, its operand expression or
its ordering does, which is exactly when the justification must be re-read.

Fence-diet bookkeeping (DESIGN.md §15): each manifest row carries a last
`downgraded-from` column ("-" for sites that were never downgraded). A row
with downgraded-from set is a ratchet tooth: its tag must name a §15
argument, and any seq_cst site reappearing at the same (file, receiver, op)
fails the check as re-strengthened rather than merely unlisted.

Modes:
  --check            gate (CI): diff tree against manifest, exit non-zero on
                     any finding; --report FILE writes the diff for artifacts;
                     --budget N additionally fails if the manifest's own
                     budget header exceeds N (the ratchet-down ceiling CI
                     pins, so the header cannot silently regrow)
  --update           rewrite the manifest from the tree, carrying over tags
                     and downgraded-from by site key (new sites get UNTAGGED,
                     and so does every site of a hash whose site count
                     changed, since its ordinals no longer name the same
                     sites; those rows are printed for re-tagging by hand;
                     a new site whose (file, receiver, op) matches a stale
                     stronger-ordered row inherits downgraded-from=<old
                     order> automatically); --set-budget N moves the seq_cst
                     ratchet (omit to keep, first write defaults to the
                     current count)
  --stats            per-file memory-order histogram (--json for machines)
  --cpp              preprocessor-assisted pass: run each src/ TU through
                     `g++ -E` with the flags from compile_commands.json and
                     report which sites are active in that configuration
                     (informational — the manifest lists *all* sites, both
                     sides of every #if)

No libclang: plain-text extraction over comment-stripped sources, with the
compiler's own preprocessor as the optional assist.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
MANIFEST = os.path.join(REPO, "tools", "atomics_manifest.tsv")
DESIGN = os.path.join(REPO, "DESIGN.md")

ATOMIC_OPS = (
    "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    "compare_exchange_strong|compare_exchange_weak"
)
METHOD_RE = re.compile(r"(?:\.|->)(" + ATOMIC_OPS + r")\s*\(")
FENCE_RE = re.compile(r"\b(?:std::)?atomic_thread_fence\s*\(")
BUILTIN_RE = re.compile(r"\b(__atomic_[a-z_]+)\s*\(")
ASM_RE = re.compile(r"\basm\s+volatile\s*\(")
ORDER_RE = re.compile(
    r"memory_order_(relaxed|consume|acquire|release|acq_rel|seq_cst)"
    r"|__ATOMIC_(RELAXED|CONSUME|ACQUIRE|RELEASE|ACQ_REL|SEQ_CST)"
)

RMW_OPS = {
    "exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor"
}
UNTAGGED = "UNTAGGED"


def strip_comments(text):
    """Blank out comments and string literals, preserving offsets/newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append('"' + " " * (j - i - 2) + '"' if j - i >= 2 else text[i:j])
            i = j
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def balanced_args(text, open_paren):
    """Return (argument text, end index) for the paren at `open_paren`."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i], i
    return text[open_paren + 1:], len(text)


def receiver_before(text, dot_pos):
    """Walk backwards from the '.'/'->' to recover the operand expression."""
    i = dot_pos
    depth_sq = depth_par = 0
    while i > 0:
        c = text[i - 1]
        if c in "]":
            depth_sq += 1
        elif c == "[":
            if depth_sq == 0:
                break
            depth_sq -= 1
        elif c == ")":
            depth_par += 1
        elif c == "(":
            if depth_par == 0:
                break
            depth_par -= 1
        elif depth_sq == 0 and depth_par == 0:
            if not (c.isalnum() or c in "_.:" or
                    (c in "->" and i > 1)):
                break
        i -= 1
    recv = re.sub(r"\s+", "", text[i:dot_pos])
    recv = recv.lstrip(".:-><")
    return recv or "<expr>"


def orders_in(arg_text):
    toks = []
    for m in ORDER_RE.finditer(arg_text):
        toks.append((m.group(1) or m.group(2)).lower())
    return "+".join(toks) if toks else "default"


def site_kind(op):
    if op == "load":
        return "load"
    if op == "store":
        return "store"
    if op in RMW_OPS:
        return "rmw"
    if op.startswith("compare_exchange"):
        return "cas"
    if op == "fence":
        return "fence"
    if op.startswith("__atomic"):
        return "builtin"
    return op


def is_seq_cst(order):
    return "seq_cst" in order or order == "default"


ORDER_RANK = {
    "relaxed": 0, "consume": 1, "acquire": 2, "release": 2, "acq_rel": 3,
    "seq_cst": 4, "default": 4,
}


def order_strength(order):
    """Strength of an order column (max over '+'-joined CAS order pairs)."""
    ranks = [ORDER_RANK.get(tok, 4) for tok in order.split("+")]
    return max(ranks) if ranks else 4


NO_DOWNGRADE = "-"


class Site:
    __slots__ = ("file", "line", "kind", "op", "receiver", "order", "key")

    def __init__(self, file, line, kind, op, receiver, order):
        self.file = file
        self.line = line
        self.kind = kind
        self.op = op
        self.receiver = receiver
        self.order = order
        self.key = None  # assigned after per-file ordinal disambiguation


def scan_file(path):
    rel = os.path.relpath(path, REPO)
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    text = strip_comments(raw)
    sites = []

    for m in METHOD_RE.finditer(text):
        op = m.group(1)
        args, _ = balanced_args(text, m.end() - 1)
        line = text.count("\n", 0, m.start()) + 1
        recv = receiver_before(text, m.start())
        sites.append(Site(rel, line, site_kind(op), op, recv, orders_in(args)))

    for m in FENCE_RE.finditer(text):
        args, _ = balanced_args(text, m.end() - 1)
        line = text.count("\n", 0, m.start()) + 1
        sites.append(
            Site(rel, line, "fence", "fence", "<fence>", orders_in(args)))

    for m in BUILTIN_RE.finditer(text):
        op = m.group(1)
        args, _ = balanced_args(text, m.end() - 1)
        line = text.count("\n", 0, m.start()) + 1
        sites.append(Site(rel, line, "builtin", op, "<builtin>",
                          orders_in(args)))

    for m in ASM_RE.finditer(text):
        args, _ = balanced_args(text, m.end() - 1)
        # Only synchronizing asm counts: the lock-prefixed CAS2 and LL/SC
        # mnemonics. (`asm volatile("yield")` and friends are not atomics.)
        body = raw[m.start():m.start() + len(args) + 64]
        if re.search(r"cmpxchg16b|ldaxp|stlxp|ldxp|stxp|\bcaspa?l?\b|\bclrex\b"
                     r"|\block\b", body):
            line = text.count("\n", 0, m.start()) + 1
            sites.append(Site(rel, line, "asm", "asm", "<asm-cas2>",
                              "asm_lock"))

    sites.sort(key=lambda s: s.line)
    counts = {}
    for s in sites:
        ident = (s.file, s.receiver, s.op, s.order)
        ordinal = counts.get(ident, 0)
        counts[ident] = ordinal + 1
        digest = hashlib.sha1(
            "|".join(ident).encode("utf-8")).hexdigest()[:12]
        s.key = "%s#%d" % (digest, ordinal)
    return sites


def scan_tree():
    sites = []
    for root, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith((".hpp", ".cpp", ".h")):
                sites.extend(scan_file(os.path.join(root, name)))
    sites.sort(key=lambda s: (s.file, s.line))
    return sites


# One manifest row. No line number: a site is named by its content key,
# and a line column would drift with every edit above the site.
Row = collections.namedtuple(
    "Row", "key file kind op receiver order tag downgraded")


def read_manifest(path=MANIFEST):
    tags, budget = {}, None
    downgrades = {}
    if not os.path.exists(path):
        return tags, budget, [], downgrades
    rows = []
    for line in open(path, encoding="utf-8"):
        line = line.rstrip("\n")
        if line.startswith("#"):
            m = re.match(r"#\s*seq_cst_budget:\s*(\d+)", line)
            if m:
                budget = int(m.group(1))
            continue
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != len(Row._fields):
            continue
        row = Row(*cols)
        tags[row.key] = row.tag
        if row.downgraded and row.downgraded != NO_DOWNGRADE:
            downgrades[row.key] = row.downgraded
        rows.append(row)
    return tags, budget, rows, downgrades


def write_manifest(sites, tags, budget, downgrades, path=MANIFEST):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# wcq atomics manifest — maintained by tools/atomics_audit.py"
                " (--update)\n")
        f.write("# Every src/ atomic site, keyed by content "
                "(sha1(file|receiver|op|orders)#ordinal), tagged with a\n")
        f.write("# DESIGN.md §11/§15 argument id. `--check` gates CI; the"
                " budget below is the seq_cst ratchet. downgraded-from\n")
        f.write("# records the order a §15 fence-diet site was argued down"
                " from (re-strengthening it fails the check).\n")
        f.write("# seq_cst_budget: %d\n" % budget)
        f.write("# key\tfile\tkind\top\treceiver\torder\ttag"
                "\tdowngraded-from\n")
        for s in sites:
            f.write("\t".join([
                s.key, s.file, s.kind, s.op, s.receiver, s.order,
                tags.get(s.key, UNTAGGED),
                downgrades.get(s.key, NO_DOWNGRADE),
            ]) + "\n")


def design_argument_ids(path=DESIGN):
    """Argument ids from DESIGN.md tables: (all ids, §15-only ids).

    §11 is the general atomic-site argument table; §15 is the fence-diet
    downgrade table — rows whose manifest downgraded-from column is set must
    tag a §15 id specifically.
    """
    ids, s15 = set(), set()
    if not os.path.exists(path):
        return ids, s15
    in_11 = in_15 = False
    for line in open(path, encoding="utf-8"):
        if line.startswith("## "):
            in_11 = line.startswith("## §11")
            in_15 = line.startswith("## §15")
            continue
        if in_11 or in_15:
            m = re.match(r"\s*\|\s*`?([A-Z][A-Z0-9-]{2,})`?\s*\|", line)
            if m:
                ids.add(m.group(1))
                if in_15:
                    s15.add(m.group(1))
    return ids, s15


def seq_cst_count(sites):
    return sum(1 for s in sites if s.kind != "asm" and is_seq_cst(s.order))


def do_check(args):
    sites = scan_tree()
    tags, budget, rows, downgrades = read_manifest()
    ids, s15_ids = design_argument_ids()
    findings = []

    # (file, receiver, op) triples that carry an argued §15 downgrade: a
    # seq_cst site reappearing at one of these is a re-strengthening, not
    # just an ordinary unlisted site.
    dieted = {}
    for row in rows:
        if row.key in downgrades:
            dieted[(row.file, row.receiver, row.op)] = (
                downgrades[row.key], row.order, tags.get(row.key, ""))

    current_keys = {s.key: s for s in sites}
    for s in sites:
        if s.key not in tags:
            triple = (s.file, s.receiver, s.op)
            if is_seq_cst(s.order) and triple in dieted:
                frm, argued, tag = dieted[triple]
                findings.append(
                    "re-strengthened: %s:%d %s.%s is seq_cst again but was "
                    "argued down %s -> %s (§15 %s) — revert, or re-argue and "
                    "drop the downgraded-from row deliberately"
                    % (s.file, s.line, s.receiver, s.op, frm, argued, tag))
            else:
                findings.append(
                    "unlisted: %s:%d %s.%s(%s) [%s] — run --update and "
                    "justify" % (s.file, s.line, s.receiver, s.op, s.order,
                                 s.key))
    for key, tag in tags.items():
        if key not in current_keys:
            findings.append(
                "stale: manifest row %s (tag %s) matches no site — run "
                "--update" % (key, tag))
    for s in sites:
        tag = tags.get(s.key)
        if tag is None:
            continue
        if not tag or tag == UNTAGGED:
            findings.append(
                "unjustified: %s:%d %s.%s [%s] has no §11/§15 tag"
                % (s.file, s.line, s.receiver, s.op, s.key))
        elif ids and tag not in ids:
            findings.append(
                "dangling: %s:%d tag '%s' names no DESIGN.md §11/§15 "
                "argument id" % (s.file, s.line, tag))
        elif s.key in downgrades and s15_ids and tag not in s15_ids:
            findings.append(
                "untracked-downgrade: %s:%d %s.%s was downgraded from %s but "
                "tag '%s' is not a DESIGN.md §15 downgrade argument"
                % (s.file, s.line, s.receiver, s.op, downgrades[s.key], tag))
    if not ids:
        findings.append("dangling: DESIGN.md has no §11 argument-id table")
    if downgrades and not s15_ids:
        findings.append(
            "untracked-downgrade: manifest has downgraded-from rows but "
            "DESIGN.md has no §15 argument-id table")

    count = seq_cst_count(sites)
    if budget is None:
        findings.append("ratchet: manifest has no seq_cst_budget header")
    elif count > budget:
        findings.append(
            "ratchet: %d seq_cst sites exceed the budget of %d — each "
            "new seq_cst site needs its own §11 argument and a deliberate "
            "--set-budget bump" % (count, budget))
    if args.budget is not None:
        if budget is not None and budget > args.budget:
            findings.append(
                "ratchet: manifest budget %d exceeds the CI ceiling of %d — "
                "the seq_cst ratchet only moves down" % (budget, args.budget))
        if count > args.budget:
            findings.append(
                "ratchet: %d seq_cst sites exceed the CI ceiling of %d"
                % (count, args.budget))

    report = []
    report.append("atomics audit: %d sites, %d seq_cst (budget %s), "
                  "%d findings" % (len(sites), count,
                                   budget if budget is not None else "unset",
                                   len(findings)))
    report.extend(findings)
    if budget is not None and count < budget:
        report.append(
            "note: seq_cst count %d is below budget %d — ratchet down with "
            "--update --set-budget %d" % (count, budget, count))
    text = "\n".join(report)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 1 if findings else 0


def carry_tags(sites, tags):
    """Manifest tags carried onto the tree's sites: (tags, reset sites).

    A key's ordinal counts the earlier sites that share its hash, so adding
    or deleting one of them renumbers the later ones, and carrying by key
    would hand a deleted site's tag to its successor. Where the number of
    sites sharing a hash differs between the manifest and the tree, no tag
    of that hash is carried: each of its sites is returned in `reset` and
    stays UNTAGGED until it is argued again.
    """
    def digest(key):
        return key.split("#", 1)[0]

    before = collections.Counter(digest(key) for key in tags)
    after = collections.Counter(digest(s.key) for s in sites)
    carried, reset = {}, []
    for s in sites:
        d = digest(s.key)
        if before[d] and before[d] != after[d]:
            reset.append(s)
        elif s.key in tags:
            carried[s.key] = tags[s.key]
    return carried, reset


def do_update(args):
    sites = scan_tree()
    old_tags, budget, rows, downgrades = read_manifest()
    tags, reset = carry_tags(sites, old_tags)
    count = seq_cst_count(sites)
    if args.set_budget is not None:
        budget = args.set_budget
    elif budget is None:
        budget = count

    # Downgrade inference: a new site (key not in the old manifest) whose
    # (file, receiver, op) matches a stale row with a strictly stronger
    # order inherits downgraded-from=<old order>. The tag is NOT carried —
    # the check then demands a fresh §15 argument for the weakened site.
    current_keys = {s.key for s in sites}
    stale_by_triple = {}
    for row in rows:
        if row.key not in current_keys:
            stale_by_triple.setdefault((row.file, row.receiver, row.op),
                                       []).append(row)
    inferred = 0
    for s in sites:
        if s.key in old_tags:
            continue
        for row in stale_by_triple.get((s.file, s.receiver, s.op), []):
            old_order = row.order
            if order_strength(old_order) > order_strength(s.order):
                # Preserve an existing downgraded-from chain's origin: a
                # second weakening keeps the original strongest order.
                origin = (row.downgraded if row.downgraded != NO_DOWNGRADE
                          else old_order)
                downgrades[s.key] = origin
                inferred += 1
                break

    write_manifest(sites, tags, budget, downgrades)
    for s in reset:
        print("untagged: %s:%d %s.%s(%s) [%s] — the sites sharing its hash "
              "were renumbered; tag it by hand"
              % (s.file, s.line, s.receiver, s.op, s.order, s.key))
    fresh = sum(1 for s in sites if tags.get(s.key, UNTAGGED) == UNTAGGED)
    print("manifest updated: %d sites (%d seq_cst, budget %d), %d untagged, "
          "%d downgraded (%d newly inferred)"
          % (len(sites), count, budget, fresh,
             sum(1 for s in sites if s.key in downgrades), inferred))
    return 0


def do_stats(args):
    sites = scan_tree()
    buckets = ["seq_cst", "acquire", "release", "acq_rel", "relaxed",
               "consume", "asm"]
    per_file = {}
    for s in sites:
        hist = per_file.setdefault(s.file, {b: 0 for b in buckets})
        if s.kind == "asm":
            hist["asm"] += 1
        elif is_seq_cst(s.order):
            hist["seq_cst"] += 1
        else:
            for b in buckets[1:-1]:
                if b in s.order:
                    hist[b] += 1
                    break
    totals = {b: sum(h[b] for h in per_file.values()) for b in buckets}
    if args.json:
        text = json.dumps({"files": per_file, "totals": totals,
                           "sites": len(sites)}, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        print(text)
        return 0
    width = max(len(f) for f in per_file) if per_file else 4
    print("%-*s %8s %8s %8s %8s %8s %8s %5s"
          % (width, "file", "seq_cst", "acquire", "release", "acq_rel",
             "relaxed", "consume", "asm"))
    for f in sorted(per_file):
        h = per_file[f]
        print("%-*s %8d %8d %8d %8d %8d %8d %5d"
              % (width, f, h["seq_cst"], h["acquire"], h["release"],
                 h["acq_rel"], h["relaxed"], h["consume"], h["asm"]))
    print("%-*s %8d %8d %8d %8d %8d %8d %5d"
          % (width, "TOTAL", totals["seq_cst"], totals["acquire"],
             totals["release"], totals["acq_rel"], totals["relaxed"],
             totals["consume"], totals["asm"]))
    return 0


def do_cpp(args):
    """Preprocessor-assisted pass over compile_commands.json."""
    cc_path = os.path.join(args.build_dir, "compile_commands.json")
    if not os.path.exists(cc_path):
        print("no %s — configure first (CMAKE_EXPORT_COMPILE_COMMANDS is on "
              "in every preset)" % cc_path, file=sys.stderr)
        return 1
    entries = json.load(open(cc_path, encoding="utf-8"))
    seen = {}
    for e in entries:
        f = os.path.abspath(os.path.join(e["directory"], e["file"]))
        if not f.startswith(SRC + os.sep) or f in seen:
            continue
        cmd = shlex.split(e.get("command", "")) or e.get("arguments", [])
        argv = []
        skip = False
        for a in cmd[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c", "-o"):
                skip = a == "-o"
                continue
            argv.append(a)
        argv = [cmd[0]] + argv + ["-E", f]
        try:
            out = subprocess.run(argv, capture_output=True, text=True,
                                 cwd=e["directory"], timeout=120)
        except OSError as exc:
            print("preprocess failed for %s: %s" % (f, exc), file=sys.stderr)
            return 1
        if out.returncode != 0:
            print("preprocess failed for %s:\n%s" % (f, out.stderr),
                  file=sys.stderr)
            return 1
        # Count only tokens in regions that came from src/ (the -E output
        # interleaves <atomic> etc.; GCC line markers name the origin file).
        active, in_src = 0, False
        for ln in out.stdout.splitlines():
            m = re.match(r'#\s+\d+\s+"([^"]+)"', ln)
            if m:
                origin = os.path.abspath(
                    os.path.join(e["directory"], m.group(1)))
                in_src = origin.startswith(SRC + os.sep)
                continue
            if in_src:
                active += len(ORDER_RE.findall(ln))
        seen[f] = active
    print("preprocessor-assisted view (%d TUs from %s):" %
          (len(seen), cc_path))
    for f in sorted(seen):
        print("  %-50s %4d memory_order tokens after -E"
              % (os.path.relpath(f, REPO), seen[f]))
    print("note: the manifest intentionally lists every site in the text, "
          "both sides of each #if; this view shows one configuration.")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    mode.add_argument("--stats", action="store_true")
    mode.add_argument("--cpp", action="store_true")
    ap.add_argument("--report", metavar="FILE",
                    help="--check: also write the findings to FILE")
    ap.add_argument("--budget", type=int, metavar="N",
                    help="--check: ratchet-down ceiling — fail if the "
                         "manifest budget or the live seq_cst count exceeds N")
    ap.add_argument("--set-budget", type=int, metavar="N",
                    help="--update: move the seq_cst ratchet to N")
    ap.add_argument("--json", action="store_true",
                    help="--stats: machine-readable output")
    ap.add_argument("--out", metavar="FILE",
                    help="--stats --json: also write the JSON to FILE")
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"),
                    help="--cpp: build tree with compile_commands.json")
    args = ap.parse_args()
    if args.check:
        return do_check(args)
    if args.update:
        return do_update(args)
    if args.stats:
        return do_stats(args)
    return do_cpp(args)


if __name__ == "__main__":
    sys.exit(main())
