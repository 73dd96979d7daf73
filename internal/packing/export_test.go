package packing

// RefMinimumSlack exports the reference search to the fuzz targets of
// package packing_test.
var RefMinimumSlack = refMinimumSlack
