"""Independent reference implementations that production code is checked against."""
