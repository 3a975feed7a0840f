package catalog

// Demo builds the metadata for the demo application used throughout the
// paper's examples: an application "TestApp" with one project
// "TestDataServices" holding the CUSTOMERS, PAYMENTS, PO_CUSTOMERS and
// PO_ITEMS data services, plus a parameterized getCustomerById function
// (surfaced as a stored procedure). The corresponding row data is produced
// by the deterministic generator in internal/demo.
func Demo() *Application {
	app := &Application{Name: "TestApp"}
	app.AddDSFile(&DSFile{
		Path: "TestDataServices",
		Name: "CUSTOMERS",
		Functions: []*Function{
			NewRelationalImport("TestDataServices", "CUSTOMERS", []Column{
				{Name: "CUSTOMERID", Type: SQLInteger},
				{Name: "CUSTOMERNAME", Type: SQLVarchar, Nullable: true, Precision: 64},
				{Name: "CITY", Type: SQLVarchar, Nullable: true, Precision: 32},
				{Name: "SIGNUPDATE", Type: SQLDate, Nullable: true},
			}),
			{
				Name:           "getCustomerById",
				RowElement:     "CUSTOMERS",
				Namespace:      "ld:TestDataServices/CUSTOMERS",
				SchemaLocation: "ld:TestDataServices/schemas/CUSTOMERS.xsd",
				Columns: []Column{
					{Name: "CUSTOMERID", Type: SQLInteger},
					{Name: "CUSTOMERNAME", Type: SQLVarchar, Nullable: true, Precision: 64},
					{Name: "CITY", Type: SQLVarchar, Nullable: true, Precision: 32},
					{Name: "SIGNUPDATE", Type: SQLDate, Nullable: true},
				},
				Params: []Parameter{{Name: "id", Type: SQLInteger}},
			},
		},
	})
	app.AddDSFile(&DSFile{
		Path: "TestDataServices",
		Name: "PAYMENTS",
		Functions: []*Function{
			NewRelationalImport("TestDataServices", "PAYMENTS", []Column{
				{Name: "PAYMENTID", Type: SQLInteger},
				{Name: "CUSTID", Type: SQLInteger},
				{Name: "PAYMENT", Type: SQLDecimal, Nullable: true, Precision: 10, Scale: 2},
				{Name: "PAYDATE", Type: SQLDate, Nullable: true},
			}),
		},
	})
	app.AddDSFile(&DSFile{
		Path: "TestDataServices",
		Name: "PO_CUSTOMERS",
		Functions: []*Function{
			NewRelationalImport("TestDataServices", "PO_CUSTOMERS", []Column{
				{Name: "ORDERID", Type: SQLInteger},
				{Name: "CUSTOMERID", Type: SQLInteger},
				{Name: "ORDERDATE", Type: SQLDate, Nullable: true},
				{Name: "STATUS", Type: SQLVarchar, Nullable: true, Precision: 16},
				{Name: "TOTAL", Type: SQLDecimal, Nullable: true, Precision: 10, Scale: 2},
			}),
		},
	})
	app.AddDSFile(&DSFile{
		Path: "TestDataServices",
		Name: "PO_ITEMS",
		Functions: []*Function{
			NewRelationalImport("TestDataServices", "PO_ITEMS", []Column{
				{Name: "ITEMID", Type: SQLInteger},
				{Name: "ORDERID", Type: SQLInteger},
				{Name: "PRODUCT", Type: SQLVarchar, Nullable: true, Precision: 48},
				{Name: "QUANTITY", Type: SQLInteger, Nullable: true},
				{Name: "PRICE", Type: SQLDecimal, Nullable: true, Precision: 10, Scale: 2},
			}),
		},
	})
	return app
}
