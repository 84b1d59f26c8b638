"""numpy for every catalab module, loaded on first use.  The stabilizer engine
never reads numpy, whose import is about half of `import catalab.cli`; the
dense engine loads it on its first attribute read.  An imported numpy is used
as it is, and a missing one fails at `import catalab`.  The deferred load
(`importlib.util.LazyLoader`) is unsafe when two threads trigger it at once;
catalab starts no Python threads."""
import importlib.util
import sys


def _lazy(name: str):
    if sys.modules.get(name) is not None:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
