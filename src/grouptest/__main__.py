"""``python -m grouptest``: the ``gt`` command line."""

from .cli import cli_main

if __name__ == "__main__":
    cli_main()
