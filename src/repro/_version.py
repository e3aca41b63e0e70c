"""The single source of the package version.

Everything that needs a version string reads it from here:
``repro.__version__`` re-exports it, ``pyproject.toml`` resolves it
through ``[tool.setuptools.dynamic]``, and the CLI's ``--version``
flag / ``version`` subcommand render it.  Bump it in this file only.
"""

__version__ = "1.11.0"
