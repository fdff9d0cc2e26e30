"""Shared fixtures for the test suite."""
