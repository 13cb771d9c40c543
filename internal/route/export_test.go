package route

// GlobalRouteRef exposes the reference-router flow to the external test
// package, whose tests place designs with packages that import route.
var GlobalRouteRef = globalRouteRef
