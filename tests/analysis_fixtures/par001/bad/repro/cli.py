def main(argv):
    execution_modes = ("fast",)  # dropped the reference tier
    return execution_modes
