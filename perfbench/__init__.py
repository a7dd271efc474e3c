"""End-to-end benchmark of the QBS reproduction; see README.md."""
