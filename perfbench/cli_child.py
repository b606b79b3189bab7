"""Run one fibrelab CLI command under the tracer.

Usage: python3 perfbench/cli_child.py SPANS_FILE CLI_ARGS...

The parent puts its spawn time (``time.time()``) in PERFBENCH_SPAWNED and
``src`` on PYTHONPATH.  The child imports the engine, installs the
wrappers, calls ``fibrelab.cli.main(CLI_ARGS)``, writes its spans to
SPANS_FILE and exits with the CLI's exit code.
"""
import importlib.util
import os
import sys
import time


def import_cli_from_source():
    """Import fibrelab.cli as ``python -m fibrelab.cli`` does: its own
    source compiled on every start, the rest of the package from byte code.
    The untraced op pays that compile, so the traced op must too."""
    import fibrelab

    path = os.path.join(os.path.dirname(fibrelab.__file__), "cli.py")
    spec = importlib.util.spec_from_loader("fibrelab.cli", loader=None, origin=path)
    module = importlib.util.module_from_spec(spec)
    module.__file__ = path
    sys.modules["fibrelab.cli"] = module
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def main():
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    spans_file, argv = sys.argv[1], sys.argv[2:]
    cli = import_cli_from_source()

    from tracer import Tracer

    import_s = time.time() - spawned
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        tracer.dump(spans_file, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
