"""End-to-end benchmark: dataset files on disk to served HTTP answers."""
