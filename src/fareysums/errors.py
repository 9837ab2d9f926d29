"""Exception types shared across the package, and the one budget check that raises BudgetError."""


class FareyError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(FareyError, ValueError):
    """An operation was called outside its documented domain."""


class BudgetError(FareyError):
    """A computation would exceed the configured memory or term budget."""


def within_budget(work: str, amount: int | float, unit: str, budget: int) -> None:
    """Refuse work whose size is over its budget, before the work starts.

    An int amount is counted and printed in full; a float one is an estimate,
    printed as "about" and 3 significant digits.
    """
    if amount > budget:
        size = amount if isinstance(amount, int) else f"about {amount:.3g}"
        raise BudgetError(f"{work} needs {size} {unit}, over budget {budget}")


class TheoremViolation(FareyError):
    """An identity that must hold mathematically failed on concrete data.

    This is never expected in normal operation: raising it means concrete
    numbers contradicted an identity the code relies on, which points at a
    bug (or at inputs that slipped past precondition checks).
    """
