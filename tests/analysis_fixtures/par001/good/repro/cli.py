def main(argv):
    execution_modes = ("fast", "reference")
    return execution_modes
