EXECUTION_MODES = ("fast", "reference")
DEFAULT_EXECUTION_MODE = "turbo"  # not a member of EXECUTION_MODES
