"""Crowdsensing application-server library.

The paper's server-side API: ``task()`` to create and submit a task,
``update_task_param()``, ``delete_task()``, and the
``receive_sensed_data()`` callback.  Multiple application servers can
share one Sense-Aid server; each sees only its own tasks' data, keyed
by hashed device identifiers.
"""

from repro.serverlib.appserver import CrowdsensingAppServer

__all__ = ["CrowdsensingAppServer"]
