package snapcodec

// SeedSnapshotBytes lets the external fuzz target seed itself.
var SeedSnapshotBytes = testSnapshotBytes
