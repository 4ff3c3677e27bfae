"""The package's export surface, including what the benchmark probes call."""

import re
from pathlib import Path

import varq

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def test_star_import_and_probe_names_resolve():
    namespace = {}
    exec("from varq import *", namespace)
    assert [name for name in varq.__all__ if name not in namespace] == []
    used = set(re.findall(r"\bvarq\.([A-Za-z_]\w*)", PROBES.read_text()))
    assert used, f"no varq.<name> references found in {PROBES}"
    assert sorted(name for name in used if not hasattr(varq, name)) == []
