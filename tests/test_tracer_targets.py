"""The benchmark's traced mode binds library functions by name; a refactor
that drops or renames one must fail here, not in a later traced run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_is_a_library_function():
    targets = load_tracer().TARGETS
    assert targets
    for target in targets:
        module = importlib.import_module(f"linklab.{target.module}")
        function = getattr(module, target.function, None)
        assert inspect.isfunction(function), f"{target.name} is not a function of linklab"
        if target.kind == "generator":
            assert inspect.isgeneratorfunction(function), f"{target.name} is not a generator"


def test_the_tracer_still_counts_the_family_enumeration():
    # install() rebinds only loaded modules, so load them all first.
    import linklab.cli  # noqa: F401
    from linklab import certificates, planarity
    from strategies import trigrid

    rg = trigrid(4, 4, 3)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        certificates.theorem_check(rg)
        planarity.find_seymour_certificate(rg)
    finally:
        tracer.uninstall()
    stats = tracer.metrics()
    assert (stats["certificates.iter_collections.calls"], stats["certificates.iter_collections.families"]) == (2, 3)
