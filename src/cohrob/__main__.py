"""`python -m cohrob`: the same command line as the `cohrob` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
