"""Terminal rendering of grids, runs, and time matrices."""

from .render import color_glyphs, render_grid, render_run, render_time_matrix

__all__ = ["render_grid", "render_time_matrix", "render_run", "color_glyphs"]
