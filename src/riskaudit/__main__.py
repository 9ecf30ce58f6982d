"""`python -m riskaudit`: the `riskaudit` command."""
from .cli import main

if __name__ == "__main__":
    main()
