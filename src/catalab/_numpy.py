"""numpy for every catalab module, and `_lazy`, the loader that defers it
and `catalab.dense`, `.cohomology`, `.protocols` and `.acceptance`: each
runs its code on first attribute read, so `import catalab.cli` runs only
`pauli`, `gf2`, `stabilizer`, `models`, `verify` and `cli`.  A missing numpy
fails at `import catalab`.  `importlib.util.LazyLoader` is unsafe when two
threads trigger one load; catalab starts no Python threads."""
import importlib.util
import sys


def _lazy(name: str):
    """The module `name`, as imported, or with its code run on its first
    attribute read.  Unlike an import, it binds no submodule on its package."""
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
