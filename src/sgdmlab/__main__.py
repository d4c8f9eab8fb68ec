"""`python -m sgdmlab`: the same command line as the `sgdmlab` script."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
