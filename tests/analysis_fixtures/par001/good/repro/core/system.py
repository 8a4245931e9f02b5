EXECUTION_MODES = ("fast", "reference")
DEFAULT_EXECUTION_MODE = "fast"
