import warnings

# Hypothesis imports libcst to write the patch of a failing property, and
# libcst's import warns that mypy_extensions.TypedDict is deprecated.  Under
# `pytest -W error` that warning stops pytest with an INTERNALERROR in place
# of the falsifying example, so libcst is imported once here with only that
# warning ignored.  Without libcst, Hypothesis writes no patch.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                category=DeprecationWarning)
        import libcst  # noqa: F401
except ImportError:
    pass
