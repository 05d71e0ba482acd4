"""Seeded end-to-end benchmark of walkrank (see README.md)."""
