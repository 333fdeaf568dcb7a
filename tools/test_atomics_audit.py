#!/usr/bin/env python3
"""Unit tests for atomics_audit.py's manifest rows and tag carry-over.

    python3 tools/test_atomics_audit.py

Keys are sha1(file|receiver|op|orders)#ordinal, so deleting or adding a
site renumbers the later sites that share its hash. These tests scan small
source files and check that --update's carry-over hands no tag across such
a renumbering, while sites whose hash group kept its size keep their tags,
and that a manifest row holds no line number, so code moving down a file
rewrites no row.
"""
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import atomics_audit  # noqa: E402

THREE_LOADS = """
void f() {
  a.load(std::memory_order_acquire);
  b.store(1, std::memory_order_release);
  a.load(std::memory_order_acquire);
  a.load(std::memory_order_acquire);
}
"""


class CarryTagsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def scan(self, text):
        path = os.path.join(self.tmp.name, "site.hpp")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return atomics_audit.scan_file(path)

    def tagged(self, sites):
        """Tags as a manifest would hold them: one distinct tag per site."""
        return {s.key: "T%d" % s.line for s in sites}

    def test_unchanged_tree_carries_every_tag(self):
        sites = self.scan(THREE_LOADS)
        tags = self.tagged(sites)
        carried, reset = atomics_audit.carry_tags(sites, tags)
        self.assertEqual(carried, tags)
        self.assertEqual(reset, [])

    def test_line_drift_carries_every_tag(self):
        tags = self.tagged(self.scan(THREE_LOADS))
        sites = self.scan("\n\n// moved down\n" + THREE_LOADS)
        carried, reset = atomics_audit.carry_tags(sites, tags)
        self.assertEqual(carried, tags)
        self.assertEqual(reset, [])

    def test_line_drift_rewrites_no_manifest_row(self):
        def manifest_text(text):
            sites = self.scan(text)
            path = os.path.join(self.tmp.name, "manifest.tsv")
            atomics_audit.write_manifest(sites, self.tagged(self.scan(
                THREE_LOADS)), 92, {}, path)
            with open(path, encoding="utf-8") as f:
                return f.read()

        self.assertEqual(manifest_text(THREE_LOADS),
                         manifest_text("\n\n// moved down\n" + THREE_LOADS))

    def test_deleted_site_resets_its_hash_group(self):
        before = self.scan(THREE_LOADS)
        tags = self.tagged(before)
        # Delete the first of the three same-hash loads: the two left are
        # renumbered #0 and #1, the keys the deleted load and its successor
        # held. Neither may inherit a tag.
        after = self.scan(THREE_LOADS.replace(
            "  a.load(std::memory_order_acquire);\n", "", 1))
        carried, reset = atomics_audit.carry_tags(after, tags)
        loads = [s for s in after if s.op == "load"]
        store = [s for s in after if s.op == "store"]
        self.assertEqual(len(loads), 2)
        self.assertEqual(sorted(s.key for s in reset),
                         sorted(s.key for s in loads))
        for s in loads:
            self.assertNotIn(s.key, carried)
        # The store's hash group kept its size, so its tag carries.
        self.assertEqual(carried, {store[0].key: tags[store[0].key]})

    def test_added_site_resets_its_hash_group(self):
        tags = self.tagged(self.scan(THREE_LOADS))
        after = self.scan(THREE_LOADS.replace(
            "void f() {\n", "void f() {\n  a.load(std::memory_order_acquire);\n",
            1))
        carried, reset = atomics_audit.carry_tags(after, tags)
        self.assertEqual(len(reset), 4)
        self.assertTrue(all(s.op == "load" for s in reset))
        self.assertEqual(len(carried), 1)

    def test_new_hash_is_untagged_but_not_reset(self):
        tags = self.tagged(self.scan(THREE_LOADS))
        after = self.scan(THREE_LOADS.replace(
            "void f() {\n",
            "void f() {\n  c.fetch_add(1, std::memory_order_relaxed);\n", 1))
        carried, reset = atomics_audit.carry_tags(after, tags)
        self.assertEqual(reset, [])
        self.assertEqual(carried, tags)
        fresh = [s for s in after if s.op == "fetch_add"]
        self.assertNotIn(fresh[0].key, carried)


if __name__ == "__main__":
    unittest.main()
