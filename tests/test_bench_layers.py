"""Every name the benchmark's tracer wraps exists in nevanlab.

Tracer.install (bench/tracing.py) looks up each LAYERS entry with
getattr(module, name), or cls.__dict__[meth] for a Class.method entry, so
deleting or renaming a wrapped name breaks the traced benchmark run.  This
test catches that in the unit suite; it only reads LAYERS.
"""
import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for module_name, targets in layers.items():
        module = importlib.import_module(f"nevanlab.{module_name}")
        for target in targets:
            if "." in target:
                cls_name, meth = target.split(".")
                assert meth in vars(getattr(module, cls_name)), f"{module_name}.{target}"
            else:
                assert callable(getattr(module, target, None)), f"{module_name}.{target}"
