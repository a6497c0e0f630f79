"""Every exported name resolves: the package's `__all__` and each module's.

A function deleted or renamed without its export would otherwise leave a
stale name that only `from ... import *` trips over.
"""

import importlib
import pkgutil

import sphere_sumrules


def test_every_exported_name_resolves():
    names = ["sphere_sumrules"] + [
        "sphere_sumrules." + info.name
        for info in pkgutil.iter_modules(sphere_sumrules.__path__)]
    exporting = 0
    stale = []
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        exporting += 1
        assert len(set(exported)) == len(exported), name
        stale += ["%s.%s" % (name, attr) for attr in exported
                  if not hasattr(module, attr)]
    assert exporting >= 7
    assert stale == []
